package repro

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestFacadeCompileAndRun(t *testing.T) {
	p, err := CompileCapC("t", `func main() { print(41 + 1); }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Superscalar())
	if err != nil {
		t.Fatal(err)
	}
	out := res.UserOutput()
	if len(out) != 1 || out[0] != 42 {
		t.Fatalf("output = %v", out)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestFacadeListing(t *testing.T) {
	_, asmText, pre, err := CompileCapCListing("t", `
worker w() { return 0; }
func main() { coworker w(); join(); }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(asmText, "nthr") {
		t.Fatal("assembly missing nthr")
	}
	if !strings.Contains(pre, "switch (nthr())") {
		t.Fatal("pre-processed listing missing switch")
	}
}

func TestFacadeAssemble(t *testing.T) {
	p, err := Assemble("t.s", "main:\n\tli a0, 7\n\tprint a0\n\thalt\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, SMT())
	if err != nil {
		t.Fatal(err)
	}
	if res.UserOutput()[0] != 7 {
		t.Fatalf("output = %v", res.UserOutput())
	}
}

func TestFacadeConfigs(t *testing.T) {
	if SOMT().DivisionPolicy.String() != "greedy" || SMT().DivisionPolicy.String() != "deny" {
		t.Fatal("division policies wrong")
	}
	if Superscalar().Contexts != 1 || SOMT().Contexts != 8 {
		t.Fatal("context counts wrong")
	}
	if SMTStatic().DivisionPolicy.String() != "static" {
		t.Fatal("static policy wrong")
	}
}

func TestFacadeTraced(t *testing.T) {
	p, err := CompileCapC("t", `
var acc;
worker w(v) { lock(&acc); acc = acc + v; unlock(&acc); return 0; }
func main() { coworker w(1); coworker w(2); join(); print(acc); }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, SOMT())
	if err != nil {
		t.Fatal(err)
	}
	if res.UserOutput()[0] != 3 {
		t.Fatalf("acc = %v", res.UserOutput())
	}
	if len(res.Divisions) == 0 {
		t.Fatal("no division events traced")
	}
}

func TestFacadeExperimentsList(t *testing.T) {
	ids := Experiments()
	if len(ids) < 10 {
		t.Fatalf("experiments = %v", ids)
	}
	found := false
	for _, id := range ids {
		if id == "fig3" {
			found = true
		}
	}
	if !found {
		t.Fatal("fig3 missing")
	}
}

func TestFacadeExperimentRuns(t *testing.T) {
	s, err := Experiment("table1", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "RUU size") {
		t.Fatalf("table1 output: %s", s)
	}
	if _, err := Experiment("bogus", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFacadeNativeRuntime(t *testing.T) {
	rt, err := NewRuntime(RuntimeConfig{Contexts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRuntime(RuntimeConfig{Contexts: -1}); err == nil {
		t.Fatal("negative Contexts accepted")
	}
	var sum int64
	done := make(chan int64, 4)
	for i := 0; i < 4; i++ {
		part := int64(i + 1)
		rt.Divide(func() { done <- part })
	}
	rt.Join()
	close(done)
	for v := range done {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("sum = %d, want 10", sum)
	}
	var s RuntimeStats = rt.Stats()
	if s.Probes != 4 {
		t.Fatalf("probes = %d, want 4", s.Probes)
	}
	if DefaultRuntime().Contexts() < 1 {
		t.Fatal("default runtime has no contexts")
	}
}

func TestFacadeServer(t *testing.T) {
	srv, err := NewServer(ServerConfig{Runtime: DefaultRuntime()})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/run/quicksort?n=200&seed=1", nil))
	if rec.Code != 200 {
		t.Fatalf("served status %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"checksum"`) {
		t.Fatalf("served body missing checksum: %s", rec.Body)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "capsule_grant_rate") {
		t.Fatalf("metrics scrape failed: %d", rec.Code)
	}
}
