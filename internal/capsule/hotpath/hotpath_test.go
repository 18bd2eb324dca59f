package hotpath

import "testing"

// bench runs the named case, so the Benchmark* identifiers CI greps for
// stay stable even if Cases() grows.
func bench(b *testing.B, name string) {
	c, ok := Find(name)
	if !ok {
		b.Fatalf("unknown hotpath case %q", name)
	}
	c.Bench(b)
}

// The atomic (live runtime) side.
func BenchmarkProbeGrantedSerial(b *testing.B)     { bench(b, "atomic/probe_granted_serial") }
func BenchmarkProbeGrantedParallel(b *testing.B)   { bench(b, "atomic/probe_granted_parallel_1x") }
func BenchmarkProbeGrantedParallel4x(b *testing.B) { bench(b, "atomic/probe_granted_parallel_4x") }
func BenchmarkProbeGrantedParallel16x(b *testing.B) {
	bench(b, "atomic/probe_granted_parallel_16x")
}
func BenchmarkProbeRefusedSerial(b *testing.B)     { bench(b, "atomic/probe_refused_serial") }
func BenchmarkProbeRefusedParallel4x(b *testing.B) { bench(b, "atomic/probe_refused_parallel_4x") }
func BenchmarkTryDivideRefused(b *testing.B)       { bench(b, "atomic/try_divide_refused") }
func BenchmarkDivideGranted(b *testing.B)          { bench(b, "atomic/divide_granted") }

// The in-workload states: after a death, and two requests at once.
func BenchmarkProbeRefusedAfterDeath(b *testing.B) { bench(b, "atomic/probe_refused_after_death") }
func BenchmarkGroupDivideRefused2Groups(b *testing.B) {
	bench(b, "atomic/group_divide_refused_2groups")
}
func BenchmarkLockUnlock2Callers(b *testing.B) { bench(b, "atomic/lock_unlock_2callers") }

// The captrace overhead side (off = tracing disabled, armed = tracer on
// but the request unsampled, traced = full per-event ring writes). The
// traced cases double as -race coverage for concurrent ring writers on
// the real probe path.
func BenchmarkTraceProbeGrantedSerialOff(b *testing.B) {
	bench(b, "trace/probe_granted_serial_off")
}
func BenchmarkTraceProbeGrantedSerialArmed(b *testing.B) {
	bench(b, "trace/probe_granted_serial_armed")
}
func BenchmarkTraceProbeGrantedSerialTraced(b *testing.B) {
	bench(b, "trace/probe_granted_serial_traced")
}
func BenchmarkTraceProbeGrantedParallel4xOff(b *testing.B) {
	bench(b, "trace/probe_granted_parallel_4x_off")
}
func BenchmarkTraceProbeGrantedParallel4xArmed(b *testing.B) {
	bench(b, "trace/probe_granted_parallel_4x_armed")
}
func BenchmarkTraceProbeGrantedParallel4xTraced(b *testing.B) {
	bench(b, "trace/probe_granted_parallel_4x_traced")
}
func BenchmarkTraceDivideGrantedOff(b *testing.B)    { bench(b, "trace/divide_granted_off") }
func BenchmarkTraceDivideGrantedArmed(b *testing.B)  { bench(b, "trace/divide_granted_armed") }
func BenchmarkTraceDivideGrantedTraced(b *testing.B) { bench(b, "trace/divide_granted_traced") }

// The capwatch overhead side (off = no sampler, armed = sampler ticking
// at the production interval beside the hot path). The armed cases
// double as -race coverage for the sampler's counter sweep racing the
// live probe/divide paths.
func BenchmarkWatchProbeGrantedSerialOff(b *testing.B) {
	bench(b, "watch/probe_granted_serial_off")
}
func BenchmarkWatchProbeGrantedSerialArmed(b *testing.B) {
	bench(b, "watch/probe_granted_serial_armed")
}
func BenchmarkWatchProbeGrantedParallel4xOff(b *testing.B) {
	bench(b, "watch/probe_granted_parallel_4x_off")
}
func BenchmarkWatchProbeGrantedParallel4xArmed(b *testing.B) {
	bench(b, "watch/probe_granted_parallel_4x_armed")
}
func BenchmarkWatchDivideGrantedOff(b *testing.B)   { bench(b, "watch/divide_granted_off") }
func BenchmarkWatchDivideGrantedArmed(b *testing.B) { bench(b, "watch/divide_granted_armed") }

// The capscope overhead side (off = armed sampler only, armed = the
// incident recorder riding the sampler's tick with triggers that never
// fire). The armed cases double as -race coverage for the recorder's
// per-tick trigger evaluation racing the live probe/divide paths.
func BenchmarkIncidentProbeGrantedSerialOff(b *testing.B) {
	bench(b, "incident/probe_granted_serial_off")
}
func BenchmarkIncidentProbeGrantedSerialArmed(b *testing.B) {
	bench(b, "incident/probe_granted_serial_armed")
}
func BenchmarkIncidentProbeGrantedParallel4xOff(b *testing.B) {
	bench(b, "incident/probe_granted_parallel_4x_off")
}
func BenchmarkIncidentProbeGrantedParallel4xArmed(b *testing.B) {
	bench(b, "incident/probe_granted_parallel_4x_armed")
}
func BenchmarkIncidentDivideGrantedOff(b *testing.B)   { bench(b, "incident/divide_granted_off") }
func BenchmarkIncidentDivideGrantedArmed(b *testing.B) { bench(b, "incident/divide_granted_armed") }
