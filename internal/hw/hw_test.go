package hw

import (
	"testing"

	"temp/internal/unit"
)

// TestTableIDie pins the Table I configuration this reproduction is
// calibrated against.
func TestTableIDie(t *testing.T) {
	d := TableIDie()
	if d.SRAMBytes != 80*unit.MiB {
		t.Errorf("SRAM = %v, want 80MiB", unit.Bytes(d.SRAMBytes))
	}
	if d.HBMBytes != 72*unit.GB {
		t.Errorf("HBM = %v, want 72GB per stack", d.HBMBytes)
	}
	if d.HBMStacks != 2 {
		t.Errorf("HBMStacks = %d, want 2 (Fig. 3 floorplan / Fig. 4(c) capacity line)", d.HBMStacks)
	}
	if d.MemCapacity() != 144*unit.GB {
		t.Errorf("MemCapacity = %v, want 144GB", d.MemCapacity())
	}
	if d.MemBandwidth() != 2*unit.TB {
		t.Errorf("MemBandwidth = %v, want 2TB/s", d.MemBandwidth())
	}
	if d.PeakFLOPS != 1800*unit.TFLOPS {
		t.Errorf("PeakFLOPS = %v", d.PeakFLOPS)
	}
	if d.FLOPSPerWatt != 2*unit.TFLOPS {
		t.Errorf("FLOPSPerWatt = %v", d.FLOPSPerWatt)
	}
	if d.HBMBandwidth != 1*unit.TB {
		t.Errorf("HBMBandwidth = %v", d.HBMBandwidth)
	}
}

func TestTableID2D(t *testing.T) {
	l := TableID2D()
	if l.Bandwidth != 4*unit.TB {
		t.Errorf("Bandwidth = %v", l.Bandwidth)
	}
	if l.Latency != 200*unit.Nanosecond {
		t.Errorf("Latency = %v", l.Latency)
	}
	if l.EnergyPerBit != 5*unit.PicoJoule {
		t.Errorf("EnergyPerBit = %v", l.EnergyPerBit)
	}
	if l.MaxReachMM != 50 {
		t.Errorf("MaxReachMM = %v, want 50 (signal-integrity limit)", l.MaxReachMM)
	}
}

func TestEffectiveBandwidthMonotone(t *testing.T) {
	l := TableID2D()
	// Granularity ramp: bigger transfers get closer to peak.
	sizes := []float64{64 * unit.KB, 1 * unit.MB, 8 * unit.MB, 64 * unit.MB, 512 * unit.MB}
	prev := 0.0
	for _, s := range sizes {
		bw := l.EffectiveBandwidth(s)
		if bw <= prev {
			t.Fatalf("EffectiveBandwidth not increasing at %v: %v <= %v", s, bw, prev)
		}
		if bw > l.Bandwidth {
			t.Fatalf("EffectiveBandwidth exceeds peak at %v", s)
		}
		prev = bw
	}
	// §III-B: tens to hundreds of MB are needed to approach peak.
	if eff := l.EffectiveBandwidth(100*unit.MB) / l.Bandwidth; eff < 0.7 {
		t.Errorf("100MB transfer reaches only %.2f of peak, want ≥0.7", eff)
	}
	if eff := l.EffectiveBandwidth(512*unit.MB) / l.Bandwidth; eff < 0.9 {
		t.Errorf("512MB transfer reaches only %.2f of peak, want ≥0.9", eff)
	}
	// Ring-collective-sized chunks (single-digit MB) fall well below
	// half of peak — the §III-B granularity penalty.
	if eff := l.EffectiveBandwidth(4*unit.MB) / l.Bandwidth; eff > 0.5 {
		t.Errorf("4MB transfer reaches %.2f of peak, want <0.5", eff)
	}
	// Zero/negative sizes return peak (degenerate guard).
	if l.EffectiveBandwidth(0) != l.Bandwidth {
		t.Error("zero-size transfer should return peak bandwidth")
	}
}

func TestEvaluationWafer(t *testing.T) {
	w := EvaluationWafer()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Dies() != 32 {
		t.Errorf("Dies() = %d, want 32 (4×8, §VIII-A)", w.Dies())
	}
	if got := w.TotalPeakFLOPS(); got != 32*1800*unit.TFLOPS {
		t.Errorf("TotalPeakFLOPS = %v", got)
	}
}

func TestReferenceWaferGrid(t *testing.T) {
	w := ReferenceWafer()
	if w.Rows != 6 || w.Cols != 8 {
		t.Errorf("reference wafer grid = %dx%d, want 6x8 (Fig. 3)", w.Rows, w.Cols)
	}
}

func TestWaferWithGrid(t *testing.T) {
	w := WaferWithGrid(8, 12)
	if w.Dies() != 96 {
		t.Errorf("Dies = %d", w.Dies())
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Wafer{
		{Name: "zero-rows", Rows: 0, Cols: 8, Die: TableIDie(), Link: TableID2D()},
		{Name: "zero-flops", Rows: 4, Cols: 8, Link: TableID2D()},
		{Name: "zero-bw", Rows: 4, Cols: 8, Die: TableIDie()},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("Validate(%s) = nil, want error", w.Name)
		}
	}
}

func TestComparisonWafer32MatchesA100Peak(t *testing.T) {
	w := ComparisonWafer32()
	c := A100Cluster()
	if c.GPUs() != 32 {
		t.Fatalf("cluster GPUs = %d, want 32", c.GPUs())
	}
	wsc := w.TotalPeakFLOPS()
	gpu := float64(c.GPUs()) * c.GPUPeakFLOPS
	if wsc != gpu {
		t.Errorf("FP16 peak mismatch: WSC %v vs GPU %v (Fig. 15 requires parity)", wsc, gpu)
	}
}

func TestA100ClusterHierarchy(t *testing.T) {
	c := A100Cluster()
	if c.IntraNodeBandwidth <= c.InterNodeBandwidth {
		t.Error("NVLink should be faster than inter-node IB")
	}
	if c.Nodes != 4 || c.GPUsPerNode != 8 {
		t.Errorf("cluster shape = %dx%d, want 4x8", c.Nodes, c.GPUsPerNode)
	}
}

func TestMultiWaferDies(t *testing.T) {
	m := MultiWafer{Wafer: EvaluationWafer(), Wafers: 4}
	if m.Dies() != 128 {
		t.Errorf("MultiWafer.Dies = %d, want 128", m.Dies())
	}
}

// TestWSCAdvantageOverDGX encodes the §I claim that WSC D2D links are
// ~6× faster than board-level GPU interconnects.
func TestWSCAdvantageOverDGX(t *testing.T) {
	w := EvaluationWafer()
	c := A100Cluster()
	ratio := w.Link.Bandwidth / c.IntraNodeBandwidth
	if ratio < 5 {
		t.Errorf("D2D/NVLink bandwidth ratio = %.1f, want ≥5 (paper: ~6×)", ratio)
	}
}
