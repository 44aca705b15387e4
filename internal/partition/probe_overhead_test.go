package partition

import (
	"slices"
	"testing"

	"bpart/internal/telemetry"
)

// BenchmarkStream20k is the probe-overhead baseline: the streaming loop
// with no probe attached (the default everywhere).
func BenchmarkStream20k(b *testing.B) {
	g := twitterish(b)
	opt := StreamOptions{K: 8, C: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Stream(g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStream20kNopProbe is the same loop with a no-op probe attached —
// the worst case for a disabled-but-wired hook site.
func BenchmarkStream20kNopProbe(b *testing.B) {
	g := twitterish(b)
	opt := StreamOptions{K: 8, C: 1, Probe: telemetry.NopProbe()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Stream(g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestIdleProbeOverheadGate is the <5% overhead gate for the resource-probe
// hook sites: the hooks fire per phase (one BeginPhase/EndPhase pair per
// stream), never per vertex, so an idle probe must be indistinguishable
// from no probe. On a loaded host back-to-back timings drift by more than
// 5%, so each rep interleaves base and probed streams one by one, swapping
// which goes first, until each side has run for at least 100 ms; a load
// change then lands on both sides. The gate takes the median of the reps'
// probed/base ratios. Skipped in -short mode where a timing assertion is
// meaningless.
func TestIdleProbeOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	g := twitterish(t)
	plain := StreamOptions{K: 8, C: 1}
	withProbe := StreamOptions{K: 8, C: 1, Probe: telemetry.NopProbe()}
	timed := func(opt StreamOptions) float64 {
		sw := telemetry.NewStopwatch()
		if _, err := Stream(g, opt); err != nil {
			t.Fatal(err)
		}
		return sw.Seconds()
	}
	const reps, minSideSeconds = 5, 0.1
	ratios := make([]float64, reps)
	var base, probed float64
	for r := range ratios {
		var b, p float64
		for i := 0; b < minSideSeconds || p < minSideSeconds; i++ {
			if i%2 == 0 {
				b += timed(plain)
				p += timed(withProbe)
			} else {
				p += timed(withProbe)
				b += timed(plain)
			}
		}
		ratios[r] = p / b
		base, probed = base+b, probed+p
	}
	slices.Sort(ratios)
	overhead := ratios[reps/2] - 1
	t.Logf("idle-probe overhead: base %.0fms, probed %.0fms over %d reps, median overhead %.2f%%",
		base*1e3, probed*1e3, reps, overhead*100)
	if overhead > 0.05 {
		t.Fatalf("idle probe overhead %.2f%% exceeds the 5%% gate", overhead*100)
	}
}
