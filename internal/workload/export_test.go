package workload

// ScatteredTrace exposes scatteredTrace to the external test package,
// which replays it beside tracegen programs (tracegen imports workload,
// so only an external test can use both).
var ScatteredTrace = scatteredTrace
