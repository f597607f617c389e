// Package hw defines the hardware configurations of the systems the
// paper evaluates: the wafer-scale chip of Table I / Fig. 3, the
// multi-wafer assembly of §VIII-E, and the A100 GPU cluster used for
// the Fig. 15 comparison. It also encodes the physical constraint at
// the heart of the paper (§III-B): die-to-die interconnect on a 2.5D
// interposer is limited to adjacent dies because signal integrity
// collapses beyond 50 mm, so a wafer exposes only a 2D mesh with no
// long-distance or diagonal links.
package hw

import (
	"fmt"

	"temp/internal/unit"
)

// Die describes one compute die (Table I, logic + DRAM die stack).
type Die struct {
	// AreaMM2 is the logic die area in mm².
	AreaMM2 float64
	// WidthMM and HeightMM give the die footprint (Fig. 3).
	WidthMM, HeightMM float64
	// SRAMBytes is the on-die SRAM capacity.
	SRAMBytes float64
	// HBMBytes is the capacity of one HBM stack.
	HBMBytes float64
	// HBMStacks is the number of HBM stacks bonded to the die; the
	// Fig. 3 floorplan shows multiple stacks along the die edges,
	// and the per-die capacity line of Fig. 4(c) (~145 GB) matches
	// two 72 GB stacks.
	HBMStacks int
	// HBMBandwidth is the access bandwidth of one stack (bytes/s).
	HBMBandwidth float64
	// HBMLatency is the DRAM access latency in seconds.
	HBMLatency float64
	// HBMEnergyPerBit is the DRAM access energy (J/bit).
	HBMEnergyPerBit float64
	// PeakFLOPS is the die's peak FP16 throughput (FLOP/s).
	PeakFLOPS float64
	// FLOPSPerWatt is compute power efficiency (FLOP/s per watt).
	FLOPSPerWatt float64
	// FrequencyHz is the operating frequency.
	FrequencyHz float64
	// VectorFLOPS is the peak throughput of the vector units used by
	// softmax/normalization/element-wise operators; a fraction of the
	// PE-array GEMM throughput.
	VectorFLOPS float64
}

// MemCapacity returns the die's total HBM capacity across stacks.
func (d Die) MemCapacity() float64 {
	stacks := d.HBMStacks
	if stacks < 1 {
		stacks = 1
	}
	return float64(stacks) * d.HBMBytes
}

// MemBandwidth returns the die's aggregate HBM bandwidth.
func (d Die) MemBandwidth() float64 {
	stacks := d.HBMStacks
	if stacks < 1 {
		stacks = 1
	}
	return float64(stacks) * d.HBMBandwidth
}

// D2D describes the die-to-die interconnect of one mesh link.
type D2D struct {
	// Bandwidth is the per-direction link bandwidth (bytes/s).
	Bandwidth float64
	// Latency is the per-hop latency in seconds.
	Latency float64
	// EnergyPerBit is the transfer energy (J/bit).
	EnergyPerBit float64
	// MaxReachMM is the longest manufacturable link (signal
	// integrity limit, §III-B). Links between non-adjacent dies
	// would exceed it and are therefore absent from the mesh.
	MaxReachMM float64
	// FECLatency is the extra forward-error-correction latency that
	// a hypothetical long link would pay (§I: 210 ns, 14× a normal
	// hop). Kept for the motivation experiments.
	FECLatency float64
	// RampBytes is the transfer granularity at which the link
	// reaches half of peak efficiency. D2D links need tens to
	// hundreds of MB to hit peak (§III-B), so small messages see
	// lower effective bandwidth: eff(b) = b / (b + RampBytes).
	// Ring-collective chunks (bytes/N) sit well below this knee,
	// which is why stationary-tensor parallelism underuses wafer
	// links while TATP's bulk sub-tensor streams do not.
	RampBytes float64
}

// EffectiveBandwidth returns the granularity-adjusted bandwidth for a
// message of the given size.
func (d D2D) EffectiveBandwidth(bytes float64) float64 {
	if bytes <= 0 {
		return d.Bandwidth
	}
	eff := bytes / (bytes + d.RampBytes)
	return d.Bandwidth * eff
}

// Wafer is the full wafer-scale chip configuration.
type Wafer struct {
	Name string
	// Rows × Cols is the compute die array (Fig. 3: 6×8 on the
	// reference floorplan; §VIII-A evaluates a 4×8 array).
	Rows, Cols int
	Die        Die
	Link       D2D
	// IOBandwidth is the aggregate off-wafer bandwidth.
	IOBandwidth float64
	// InterWaferBandwidth is the per-wafer-pair bandwidth available
	// in multi-wafer systems (§VIII-I cites ~9 TB/s).
	InterWaferBandwidth float64
	// InterWaferLatency is the wafer-to-wafer hop latency.
	InterWaferLatency float64
}

// Dies returns the number of compute dies on the wafer.
func (w Wafer) Dies() int { return w.Rows * w.Cols }

// TotalPeakFLOPS returns the aggregate wafer compute.
func (w Wafer) TotalPeakFLOPS() float64 { return float64(w.Dies()) * w.Die.PeakFLOPS }

// Validate checks structural invariants.
func (w Wafer) Validate() error {
	if w.Rows <= 0 || w.Cols <= 0 {
		return fmt.Errorf("hw: wafer %q has non-positive die array %dx%d", w.Name, w.Rows, w.Cols)
	}
	if w.Die.PeakFLOPS <= 0 {
		return fmt.Errorf("hw: wafer %q has non-positive die FLOPS", w.Name)
	}
	if w.Die.HBMBytes <= 0 {
		return fmt.Errorf("hw: wafer %q has non-positive die HBM capacity", w.Name)
	}
	if w.Die.HBMBandwidth <= 0 {
		return fmt.Errorf("hw: wafer %q has non-positive die HBM bandwidth", w.Name)
	}
	if w.Link.Bandwidth <= 0 {
		return fmt.Errorf("hw: wafer %q has non-positive link bandwidth", w.Name)
	}
	return nil
}

// Custom builds a wafer from an arbitrary die array and component
// descriptions — the FromSpec entry point of the declarative scenario
// layer. Off-wafer and inter-wafer parameters that are zero inherit
// the §VIII-A evaluation defaults, so a spec only has to state what it
// changes.
func Custom(name string, rows, cols int, die Die, link D2D) Wafer {
	ref := EvaluationWafer()
	if name == "" {
		name = fmt.Sprintf("wsc-%dx%d", rows, cols)
	}
	w := Wafer{
		Name:                name,
		Rows:                rows,
		Cols:                cols,
		Die:                 die,
		Link:                link,
		IOBandwidth:         ref.IOBandwidth,
		InterWaferBandwidth: ref.InterWaferBandwidth,
		InterWaferLatency:   ref.InterWaferLatency,
	}
	if die.VectorFLOPS <= 0 {
		// Vector units scale with the PE array unless stated.
		w.Die.VectorFLOPS = die.PeakFLOPS / 16
	}
	return w
}

// TableIDie returns the compute die of Table I: 500 mm² logic,
// 80 MB SRAM, 1800 TFLOPS at 2 TFLOPS/W, 72 GB HBM at 1 TB/s.
func TableIDie() Die {
	return Die{
		AreaMM2:         500,
		WidthMM:         33.25,
		HeightMM:        24.99,
		SRAMBytes:       80 * unit.MiB,
		HBMBytes:        72 * unit.GB,
		HBMStacks:       2,
		HBMBandwidth:    1 * unit.TB,
		HBMLatency:      100 * unit.Nanosecond,
		HBMEnergyPerBit: 6.0 * unit.PicoJoule,
		PeakFLOPS:       1800 * unit.TFLOPS,
		FLOPSPerWatt:    2 * unit.TFLOPS,
		FrequencyHz:     2.0e9,
		VectorFLOPS:     1800 * unit.TFLOPS / 16,
	}
}

// TableID2D returns the D2D interconnect of Table I: 4 TB/s, 200 ns,
// 5 pJ/bit. The 50 mm reach limit and 210 ns FEC penalty come from
// §I/§III-B; the tens-of-MB granularity ramp from §III-B.
func TableID2D() D2D {
	return D2D{
		Bandwidth:    4 * unit.TB,
		Latency:      200 * unit.Nanosecond,
		EnergyPerBit: 5.0 * unit.PicoJoule,
		MaxReachMM:   50,
		FECLatency:   210 * unit.Nanosecond,
		RampBytes:    32 * unit.MB,
	}
}

// EvaluationWafer returns the §VIII-A configuration: a 4×8 die array
// at 2 GHz with Table I dies and links.
func EvaluationWafer() Wafer {
	return Wafer{
		Name:                "wsc-4x8",
		Rows:                4,
		Cols:                8,
		Die:                 TableIDie(),
		Link:                TableID2D(),
		IOBandwidth:         4 * unit.TB,
		InterWaferBandwidth: 9 * unit.TB,
		InterWaferLatency:   1 * unit.Microsecond,
	}
}

// ReferenceWafer returns the Fig. 3 floorplan: 6×8 dies on a
// 215 mm × 215 mm wafer.
func ReferenceWafer() Wafer {
	w := EvaluationWafer()
	w.Name = "wsc-6x8"
	w.Rows, w.Cols = 6, 8
	return w
}

// WaferWithGrid returns the evaluation wafer resized to rows×cols,
// used by the scaling studies (Fig. 7(c) sweeps 4×5 up to 80×95-die
// style configurations at smaller granularity).
func WaferWithGrid(rows, cols int) Wafer {
	w := EvaluationWafer()
	w.Name = fmt.Sprintf("wsc-%dx%d", rows, cols)
	w.Rows, w.Cols = rows, cols
	return w
}

// ComparisonWafer32 returns the 32-die wafer used in Fig. 15, sized
// to match the FP16 peak of a 32×A100 cluster (312 TFLOPS per GPU):
// 32 dies × 312 TFLOPS.
func ComparisonWafer32() Wafer {
	w := WaferWithGrid(4, 8)
	w.Name = "wsc-4x8-a100match"
	w.Die.PeakFLOPS = 312 * unit.TFLOPS
	w.Die.VectorFLOPS = 312 * unit.TFLOPS / 16
	return w
}

// MultiWafer describes an assembly of identical wafers connected by
// inter-wafer links; pipeline parallelism spans wafers (§VIII-E).
type MultiWafer struct {
	Wafer  Wafer
	Wafers int
}

// Dies returns total dies across all wafers.
func (m MultiWafer) Dies() int { return m.Wafers * m.Wafer.Dies() }

// Cluster models the switched GPU system of Fig. 15: GPUs grouped
// into nodes with all-to-all NVSwitch bandwidth inside a node and
// InfiniBand between nodes. Because switches provide arbitrary
// physical rings, collectives on a Cluster pay no mesh-topology
// penalty — the property the paper contrasts WSCs against (§V).
type Cluster struct {
	Name            string
	Nodes           int
	GPUsPerNode     int
	GPUPeakFLOPS    float64
	GPUVectorFLOPS  float64
	GPUMemBytes     float64
	GPUMemBandwidth float64
	// IntraNodeBandwidth is per-GPU NVLink/NVSwitch bandwidth.
	IntraNodeBandwidth float64
	IntraNodeLatency   float64
	// InterNodeBandwidth is per-GPU network bandwidth.
	InterNodeBandwidth float64
	InterNodeLatency   float64
	EnergyPerBitIntra  float64
	EnergyPerBitInter  float64
	FLOPSPerWatt       float64
}

// GPUs returns the total device count.
func (c Cluster) GPUs() int { return c.Nodes * c.GPUsPerNode }

// A100Cluster returns the 4-node, 32-GPU A100 reference (Fig. 15):
// 312 TFLOPS FP16 per GPU, 600 GB/s NVSwitch, 25 GB/s/GPU IB.
func A100Cluster() Cluster {
	return Cluster{
		Name:               "a100-4x8",
		Nodes:              4,
		GPUsPerNode:        8,
		GPUPeakFLOPS:       312 * unit.TFLOPS,
		GPUVectorFLOPS:     312 * unit.TFLOPS / 16,
		GPUMemBytes:        80 * unit.GB,
		GPUMemBandwidth:    2.0 * unit.TB,
		IntraNodeBandwidth: 600 * unit.GB,
		IntraNodeLatency:   2 * unit.Microsecond,
		InterNodeBandwidth: 25 * unit.GB,
		InterNodeLatency:   5 * unit.Microsecond,
		EnergyPerBitIntra:  10 * unit.PicoJoule,
		EnergyPerBitInter:  30 * unit.PicoJoule,
		FLOPSPerWatt:       0.78 * unit.TFLOPS,
	}
}
