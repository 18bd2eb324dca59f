package promtext

import "testing"

const exposition = `# HELP capsule_contexts Context-token pool size.
# TYPE capsule_contexts gauge
capsule_contexts 4
capsule_grant_rate 0.375
caprouter_remote_denies_total{reason="credit"} 12
caprouter_backend_dispatches_total{backend="127.0.0.1:8101"} 7

malformed line without value
caprouter_fallback_rate NaN
`

func TestParse(t *testing.T) {
	m := Parse([]byte(exposition))
	if v, ok := m["capsule_contexts"]; !ok || v != 4 {
		t.Fatalf("capsule_contexts = %v,%v", v, ok)
	}
	if v, ok := m["capsule_grant_rate"]; !ok || v != 0.375 {
		t.Fatalf("capsule_grant_rate = %v,%v", v, ok)
	}
	if v := m[`caprouter_remote_denies_total{reason="credit"}`]; v != 12 {
		t.Fatalf("labelled series = %v, want 12", v)
	}
	if _, ok := m["nosuch"]; ok {
		t.Fatal("missing series reported present")
	}
	if v, ok := m["caprouter_fallback_rate"]; !ok || v == v { // NaN != NaN
		t.Fatalf("NaN sample = %v,%v, want parsed NaN", v, ok)
	}
	// Comment lines and the malformed line must not produce keys.
	for k := range m {
		if k == "" || k[0] == '#' || k == "malformed line without" {
			t.Fatalf("bad key %q survived parsing", k)
		}
	}
}

func TestLabelValue(t *testing.T) {
	key := `caprouter_backend_dispatches_total{backend="127.0.0.1:8101"}`
	if v, ok := LabelValue(key, "caprouter_backend_dispatches_total", "backend"); !ok || v != "127.0.0.1:8101" {
		t.Fatalf("LabelValue = %q,%v", v, ok)
	}
	if _, ok := LabelValue(key, "caprouter_backend_dispatches_total", "nosuch"); ok {
		t.Fatal("missing label reported present")
	}
	if _, ok := LabelValue(key, "other_series", "backend"); ok {
		t.Fatal("wrong series matched")
	}
	if _, ok := LabelValue("caprouter_backends", "caprouter_backends", "backend"); ok {
		t.Fatal("unlabelled series matched a label")
	}
	multi := `x{a="1",backend="b:2"}`
	if v, ok := LabelValue(multi, "x", "backend"); !ok || v != "b:2" {
		t.Fatalf("multi-label LabelValue = %q,%v", v, ok)
	}
}
