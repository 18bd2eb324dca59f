// Package buildinfo resolves the binary's own identity — module
// version or VCS revision, Go toolchain, GOMAXPROCS — from
// runtime/debug.ReadBuildInfo. Every server publishes it as a
// *_build_info gauge and every capwatch report embeds it, so a fleet
// operator can see at a glance which build each backend is running
// (the first question asked when one backend's p99 diverges).
package buildinfo

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// Info is the identity triple, embedded in capwatch reports and
// capscope top headers.
type Info struct {
	Version  string `json:"version"`
	Go       string `json:"go"`
	MaxProcs int    `json:"gomaxprocs"`
}

var (
	once    sync.Once
	version string
)

// Version returns the best available build identity: the VCS revision
// (short, with a -dirty suffix for modified trees) when the binary was
// built inside a checkout, else the main module's version, else
// "devel". The result is computed once; ReadBuildInfo walks the whole
// build-settings table and is too slow to sit on a metrics scrape.
func Version() string {
	once.Do(func() {
		version = "devel"
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			version = v
		}
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			version = rev + dirty
		}
	})
	return version
}

// GoVersion returns the toolchain that built the binary.
func GoVersion() string { return runtime.Version() }

// Get assembles the full identity triple. GOMAXPROCS is read live: it
// is the one field an operator can change under a running process.
func Get() Info {
	return Info{Version: Version(), Go: GoVersion(), MaxProcs: runtime.GOMAXPROCS(0)}
}
