package capc

import (
	"fmt"
	"math"
)

// tokKind enumerates CapC token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokChar

	// Punctuation and operators.
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokLBracket
	tokRBracket
	tokSemi
	tokComma
	tokAssign
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
	tokAmp
	tokPipe
	tokCaret
	tokTilde
	tokBang
	tokShl
	tokShr
	tokLt
	tokLe
	tokGt
	tokGe
	tokEq
	tokNe
	tokAndAnd
	tokOrOr

	// Keywords.
	tokConst
	tokVar
	tokFunc
	tokWorker
	tokIf
	tokElse
	tokWhile
	tokFor
	tokReturn
	tokBreak
	tokContinue
	tokLock
	tokUnlock
	tokCoworker
)

var keywords = map[string]tokKind{
	"const":    tokConst,
	"var":      tokVar,
	"func":     tokFunc,
	"worker":   tokWorker,
	"if":       tokIf,
	"else":     tokElse,
	"while":    tokWhile,
	"for":      tokFor,
	"return":   tokReturn,
	"break":    tokBreak,
	"continue": tokContinue,
	"lock":     tokLock,
	"unlock":   tokUnlock,
	"coworker": tokCoworker,
}

var kindNames = map[tokKind]string{
	tokEOF: "end of file", tokIdent: "identifier", tokNumber: "number", tokChar: "char",
	tokLParen: "'('", tokRParen: "')'", tokLBrace: "'{'", tokRBrace: "'}'",
	tokLBracket: "'['", tokRBracket: "']'", tokSemi: "';'", tokComma: "','",
	tokAssign: "'='", tokPlus: "'+'", tokMinus: "'-'", tokStar: "'*'",
	tokSlash: "'/'", tokPercent: "'%'", tokAmp: "'&'", tokPipe: "'|'",
	tokCaret: "'^'", tokTilde: "'~'", tokBang: "'!'", tokShl: "'<<'", tokShr: "'>>'",
	tokLt: "'<'", tokLe: "'<='", tokGt: "'>'", tokGe: "'>='", tokEq: "'=='", tokNe: "'!='",
	tokAndAnd: "'&&'", tokOrOr: "'||'",
	tokConst: "'const'", tokVar: "'var'", tokFunc: "'func'", tokWorker: "'worker'",
	tokIf: "'if'", tokElse: "'else'", tokWhile: "'while'", tokFor: "'for'",
	tokReturn: "'return'", tokBreak: "'break'", tokContinue: "'continue'",
	tokLock: "'lock'", tokUnlock: "'unlock'", tokCoworker: "'coworker'",
}

func (k tokKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", k)
}

// token is one lexeme with its source line.
type token struct {
	kind tokKind
	text string
	val  int64 // numbers and chars
	line int
}

// lexer turns CapC source into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	file string
}

func newLexer(file, src string) *lexer {
	return &lexer{src: src, line: 1, file: file}
}

func (lx *lexer) errf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", lx.file, line, fmt.Sprintf(format, args...))
}

func (lx *lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) next() (token, error) {
	// Skip whitespace and comments.
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			lx.pos += 2
			for lx.pos+1 < len(lx.src) && !(lx.src[lx.pos] == '*' && lx.src[lx.pos+1] == '/') {
				if lx.src[lx.pos] == '\n' {
					lx.line++
				}
				lx.pos++
			}
			if lx.pos+1 >= len(lx.src) {
				return token{}, lx.errf(lx.line, "unterminated block comment")
			}
			lx.pos += 2
		default:
			goto lexed
		}
	}
lexed:
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: lx.line}, nil
	}
	start, line := lx.pos, lx.line
	c := lx.src[lx.pos]

	isAlpha := func(c byte) bool {
		return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
	}
	isDigit := func(c byte) bool { return c >= '0' && c <= '9' }

	switch {
	case isAlpha(c):
		for lx.pos < len(lx.src) && (isAlpha(lx.src[lx.pos]) || isDigit(lx.src[lx.pos])) {
			lx.pos++
		}
		text := lx.src[start:lx.pos]
		if k, ok := keywords[text]; ok {
			return token{kind: k, text: text, line: line}, nil
		}
		return token{kind: tokIdent, text: text, line: line}, nil
	case isDigit(c):
		base, lit := uint64(10), start
		if c == '0' && lx.pos+1 < len(lx.src) && (lx.src[lx.pos+1] == 'x' || lx.src[lx.pos+1] == 'X') {
			base = 16
			lx.pos += 2
			start = lx.pos
		}
		// A decimal literal is at most math.MaxInt64; a hex literal may
		// use all 64 bits and reads as two's complement (0xFF…FF is -1).
		limit := uint64(math.MaxInt64)
		if base == 16 {
			limit = math.MaxUint64
		}
		var v uint64
		digits, overflow := 0, false
		for lx.pos < len(lx.src) {
			d := lx.src[lx.pos]
			var dv uint64
			switch {
			case isDigit(d):
				dv = uint64(d - '0')
			case base == 16 && d >= 'a' && d <= 'f':
				dv = uint64(d-'a') + 10
			case base == 16 && d >= 'A' && d <= 'F':
				dv = uint64(d-'A') + 10
			default:
				goto numDone
			}
			overflow = overflow || v > (limit-dv)/base
			v = v*base + dv
			digits++
			lx.pos++
		}
	numDone:
		if digits == 0 {
			return token{}, lx.errf(line, "malformed number")
		}
		if overflow {
			return token{}, lx.errf(line, "number %s out of range", lx.src[lit:lx.pos])
		}
		return token{kind: tokNumber, text: lx.src[start:lx.pos], val: int64(v), line: line}, nil
	case c == '\'':
		lx.pos++
		if lx.pos >= len(lx.src) {
			return token{}, lx.errf(line, "unterminated char literal")
		}
		var v int64
		if lx.src[lx.pos] == '\\' {
			lx.pos++
			if lx.pos >= len(lx.src) {
				return token{}, lx.errf(line, "unterminated char literal")
			}
			switch lx.src[lx.pos] {
			case 'n':
				v = '\n'
			case 't':
				v = '\t'
			case '0':
				v = 0
			case '\'':
				v = '\''
			case '\\':
				v = '\\'
			default:
				return token{}, lx.errf(line, "unknown escape \\%c", lx.src[lx.pos])
			}
		} else {
			v = int64(lx.src[lx.pos])
		}
		lx.pos++
		if lx.pos >= len(lx.src) || lx.src[lx.pos] != '\'' {
			return token{}, lx.errf(line, "unterminated char literal")
		}
		lx.pos++
		return token{kind: tokChar, val: v, line: line}, nil
	}

	two := func(k tokKind) (token, error) {
		lx.pos += 2
		return token{kind: k, text: lx.src[start : start+2], line: line}, nil
	}
	one := func(k tokKind) (token, error) {
		lx.pos++
		return token{kind: k, text: lx.src[start : start+1], line: line}, nil
	}
	nextIs := func(b byte) bool { return lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == b }

	switch c {
	case '(':
		return one(tokLParen)
	case ')':
		return one(tokRParen)
	case '{':
		return one(tokLBrace)
	case '}':
		return one(tokRBrace)
	case '[':
		return one(tokLBracket)
	case ']':
		return one(tokRBracket)
	case ';':
		return one(tokSemi)
	case ',':
		return one(tokComma)
	case '+':
		return one(tokPlus)
	case '-':
		return one(tokMinus)
	case '*':
		return one(tokStar)
	case '/':
		return one(tokSlash)
	case '%':
		return one(tokPercent)
	case '^':
		return one(tokCaret)
	case '~':
		return one(tokTilde)
	case '&':
		if nextIs('&') {
			return two(tokAndAnd)
		}
		return one(tokAmp)
	case '|':
		if nextIs('|') {
			return two(tokOrOr)
		}
		return one(tokPipe)
	case '!':
		if nextIs('=') {
			return two(tokNe)
		}
		return one(tokBang)
	case '=':
		if nextIs('=') {
			return two(tokEq)
		}
		return one(tokAssign)
	case '<':
		if nextIs('<') {
			return two(tokShl)
		}
		if nextIs('=') {
			return two(tokLe)
		}
		return one(tokLt)
	case '>':
		if nextIs('>') {
			return two(tokShr)
		}
		if nextIs('=') {
			return two(tokGe)
		}
		return one(tokGt)
	}
	return token{}, lx.errf(line, "unexpected character %q", string(c))
}
