package workload

// ScatteredTrace exposes scatteredTrace to the external test package,
// which replays it beside tracegen programs (tracegen imports workload,
// so only an external test can use both).
var ScatteredTrace = scatteredTrace

// ReplayScan exposes replayScan, the reference reordered replay, to the
// external test package for the same reason.
var ReplayScan = replayScan
