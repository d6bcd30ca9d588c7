package exp

import "hnp/internal/obs"

// Figure harnesses publish coarse progress on the process-wide
// obs.Default registry (figures are process-level activities, unlike
// per-System planning telemetry): each completed unit of a figure's sweep
// — a workload repetition, a network size, a series — increments
// "exp.<fig>.units_done". Watching that counter (e.g. via smq
// -debug-addr) shows how far a long figure run has progressed.

// markProgress records one completed sweep unit for the running figure.
// Safe from the parallel harness; a no-op outside a figure run.
func (c Config) markProgress() {
	if c.fig == "" {
		return
	}
	obs.Default.Counter("exp." + c.fig + ".units_done").Inc()
}
