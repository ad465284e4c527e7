package obs

import (
	"fmt"
	"strings"
	"time"
)

// FormatPhaseTable renders the phase-attribution summary merged into
// core.Report(): one line per phase with span count, exclusive (self)
// and inclusive (total) durations, the share of the run's self time,
// and the physical toolchain attempts attributed to the phase. Under a
// VirtualClock the durations are virtual (ticks + accounted backoff),
// so the table is byte-identical across double runs; under a WallClock
// (bench harness) they are real nanoseconds. Empty input renders "".
func FormatPhaseTable(phases []PhaseStat) string {
	if len(phases) == 0 {
		return ""
	}
	var selfSum time.Duration
	for _, p := range phases {
		selfSum += p.Self
	}
	var sb strings.Builder
	sb.WriteString("phase attribution:\n")
	for _, p := range phases {
		pct := 0.0
		if selfSum > 0 {
			pct = 100 * float64(p.Self) / float64(selfSum)
		}
		fmt.Fprintf(&sb, "  %-24s spans=%d self=%-12s total=%-12s share=%5.1f%% probes=%d\n",
			p.Name, p.Spans, p.Self, p.Total, pct, p.Probes)
	}
	return sb.String()
}
