package loadgen

import (
	"fmt"
	"io"
	"time"
)

// WriteTable prints the human-readable scoreboard.
func (res *Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-10s %10s %10s %8s %8s %10s %10s %10s %10s\n",
		"tenant", "target", "achieved", "ops", "errors", "p50", "p95", "p99", "max")
	row := func(t TenantResult) {
		fmt.Fprintf(w, "%-10s %10.0f %10.1f %8d %8d %10s %10s %10s %10s\n",
			t.Tenant, t.TargetQPS, t.AchievedQPS, t.Ops, t.Errors,
			t.P50.Round(time.Microsecond), t.P95.Round(time.Microsecond),
			t.P99.Round(time.Microsecond), t.Max.Round(time.Microsecond))
	}
	for _, t := range res.Tenants {
		row(t)
	}
	row(res.Aggregate)
	if a := res.Aggregate; a.CacheHits+a.CacheMisses > 0 {
		fmt.Fprintf(w, "owner cache: hits=%d misses=%d bytes_saved=%d\n",
			a.CacheHits, a.CacheMisses, a.CacheBytesSaved)
	}
	if res.FirstCheckFailure != "" {
		fmt.Fprintf(w, "first check failure: %s\n", res.FirstCheckFailure)
	}
}
