package stats

// EventCoreStats counts what the simulation engine's event core did
// over a run: how many events of each kind it processed, and how often
// the scheduler actually ran versus short-circuited on the head-blocked
// watermark. The counters are plain increments on the hot path — no
// locks, no allocation — and exist for the profiling layer: the
// benchmark derives events/sec from Events, and `simrun -cpuprofile`
// runs print them next to the profile.
type EventCoreStats struct {
	// Events is the total number of job events popped (arrivals, steps,
	// finishes — the denominator of events/sec). FaultEvents counts
	// fault-stream applications, which interleave by time but pop from
	// their own stream.
	Events      int64
	Arrivals    int64
	Steps       int64
	Finishes    int64
	FaultEvents int64

	// SchedRounds counts trySchedule invocations that ran a full policy
	// round; SchedSkips counts the ones the head-blocked watermark
	// proved redundant and skipped in O(1).
	SchedRounds int64
	SchedSkips  int64
}
