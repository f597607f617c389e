// Package unit provides the physical units, scalar types and
// formatting helpers shared by every other package in the TEMP
// reproduction. Times are seconds, data sizes are bytes, rates are
// bytes/second or FLOP/second, and energies are joules, all carried
// as float64 so that analytic cost expressions compose naturally.
package unit

import "fmt"

// Convenient scale constants. Data sizes use binary prefixes to match
// memory-capacity accounting; rates use decimal prefixes to match
// vendor datasheets (a 4 TB/s link moves 4e12 bytes per second).
const (
	KiB float64 = 1024
	MiB float64 = 1024 * KiB
	GiB float64 = 1024 * MiB
	TiB float64 = 1024 * GiB

	KB float64 = 1e3
	MB float64 = 1e6
	GB float64 = 1e9
	TB float64 = 1e12

	GFLOPS float64 = 1e9
	TFLOPS float64 = 1e12
	PFLOPS float64 = 1e15

	Nanosecond  float64 = 1e-9
	Microsecond float64 = 1e-6
	Millisecond float64 = 1e-3

	PicoJoule float64 = 1e-12
)

// DType identifies a tensor element type.
type DType int

const (
	// FP16 is the 2-byte IEEE half used for weights/activations in
	// mixed-precision training (§VIII-A).
	FP16 DType = iota
	// BF16 is the 2-byte bfloat16 format.
	BF16
	// FP32 is the 4-byte single used for optimizer state.
	FP32
	// FP8 is the 1-byte float used in some inference paths.
	FP8
	// INT8 is a 1-byte integer type.
	INT8
)

// Size returns the element size in bytes.
func (d DType) Size() float64 {
	switch d {
	case FP16, BF16:
		return 2
	case FP32:
		return 4
	case FP8, INT8:
		return 1
	default:
		return 4
	}
}

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case FP16:
		return "fp16"
	case BF16:
		return "bf16"
	case FP32:
		return "fp32"
	case FP8:
		return "fp8"
	case INT8:
		return "int8"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// Bytes formats a byte count with a binary-prefix unit, e.g. "1.50GiB".
func Bytes(b float64) string {
	switch {
	case b >= TiB:
		return fmt.Sprintf("%.2fTiB", b/TiB)
	case b >= GiB:
		return fmt.Sprintf("%.2fGiB", b/GiB)
	case b >= MiB:
		return fmt.Sprintf("%.2fMiB", b/MiB)
	case b >= KiB:
		return fmt.Sprintf("%.2fKiB", b/KiB)
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// Seconds formats a duration given in seconds with an adaptive unit.
func Seconds(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.3fs", s)
	case s >= Millisecond:
		return fmt.Sprintf("%.3fms", s/Millisecond)
	case s >= Microsecond:
		return fmt.Sprintf("%.3fus", s/Microsecond)
	default:
		return fmt.Sprintf("%.1fns", s/Nanosecond)
	}
}

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// CeilDiv returns ceil(a/b) for positive integers.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("unit: CeilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}

// MaxF returns the larger of two float64s without pulling in math.Max
// call overhead in hot loops.
func MaxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// MinF returns the smaller of two float64s.
func MinF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// RepAdd sums v added to a zero accumulator n times — the exact float
// chain a dense link-load walk produces for a link traversed n times
// by equal flows. It is NOT n*v in general (0.1 added ten times is
// 0.9999999999999999, 10*0.1 is 1), and the goldens pin the walk's
// value.
func RepAdd(v float64, n int32) float64 {
	var s float64
	for i := int32(0); i < n; i++ {
		s += v
	}
	return s
}
