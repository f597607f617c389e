package unit

import (
	"testing"
	"testing/quick"
)

func TestDTypeSize(t *testing.T) {
	tests := []struct {
		dt   DType
		want float64
	}{
		{FP16, 2}, {BF16, 2}, {FP32, 4}, {FP8, 1}, {INT8, 1},
	}
	for _, tc := range tests {
		if got := tc.dt.Size(); got != tc.want {
			t.Errorf("%v.Size() = %v, want %v", tc.dt, got, tc.want)
		}
	}
}

func TestDTypeString(t *testing.T) {
	tests := []struct {
		dt   DType
		want string
	}{
		{FP16, "fp16"}, {BF16, "bf16"}, {FP32, "fp32"}, {FP8, "fp8"}, {INT8, "int8"},
	}
	for _, tc := range tests {
		if got := tc.dt.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestBytesFormat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{512, "512B"},
		{2048, "2.00KiB"},
		{3 * MiB, "3.00MiB"},
		{1.5 * GiB, "1.50GiB"},
		{2 * TiB, "2.00TiB"},
	}
	for _, tc := range tests {
		if got := Bytes(tc.in); got != tc.want {
			t.Errorf("Bytes(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSecondsFormat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{2.5, "2.500s"},
		{3 * Millisecond, "3.000ms"},
		{40 * Microsecond, "40.000us"},
		{200 * Nanosecond, "200.0ns"},
	}
	for _, tc := range tests {
		if got := Seconds(tc.in); got != tc.want {
			t.Errorf("Seconds(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp high = %v", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp low = %v", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("Clamp mid = %v", got)
	}
}

func TestClampProperty(t *testing.T) {
	f := func(v, a, b float64) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		got := Clamp(v, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilDiv(t *testing.T) {
	tests := []struct{ a, b, want int }{
		{10, 5, 2}, {11, 5, 3}, {1, 5, 1}, {0, 5, 0}, {64, 8, 8},
	}
	for _, tc := range tests {
		if got := CeilDiv(tc.a, tc.b); got != tc.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCeilDivProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		bb := int(b%1000) + 1
		aa := int(a)
		q := CeilDiv(aa, bb)
		return q*bb >= aa && (q-1)*bb < aa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CeilDiv(1, 0) did not panic")
		}
	}()
	CeilDiv(1, 0)
}

func TestMinMaxF(t *testing.T) {
	if MaxF(1, 2) != 2 || MaxF(2, 1) != 2 {
		t.Error("MaxF wrong")
	}
	if MinF(1, 2) != 1 || MinF(2, 1) != 1 {
		t.Error("MinF wrong")
	}
}
