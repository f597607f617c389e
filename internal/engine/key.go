package engine

import "math"

// appendJobKey appends the canonical binary encoding of a job's
// identity to buf and returns the extended slice. The encoding is the
// engine memo's key, in memory and in the persistent memo's file, so
// it must be:
//
//   - total: every field of every nested struct participates (a
//     reflection test walks the structs and asserts each perturbation
//     changes the key), so two jobs encode equal iff they are equal,
//     and distinct jobs never share a memo entry;
//   - stable: fixed-width little-endian integers, IEEE-754 bit
//     patterns for floats and length-prefixed strings — no maps, no
//     hashing, no platform dependence — so keys written by one run
//     resolve in every later run;
//   - versioned externally: the disk file's header carries the schema
//     version, bumped whenever Job (or a nested struct) changes shape.
//
// Callers normalize the job first (Config.Normalize,
// CanonicalBackendKey) so equivalent spellings share one key.
func appendJobKey(buf []byte, j Job) []byte {
	// Model.
	buf = appendString(buf, j.Model.Name)
	buf = appendInt(buf, j.Model.Heads)
	buf = appendInt(buf, j.Model.Batch)
	buf = appendInt(buf, j.Model.Hidden)
	buf = appendInt(buf, j.Model.Layers)
	buf = appendInt(buf, j.Model.Seq)
	buf = appendInt(buf, j.Model.FFNMult)
	buf = appendInt(buf, j.Model.Vocab)

	// Wafer.
	buf = appendString(buf, j.Wafer.Name)
	buf = appendInt(buf, j.Wafer.Rows)
	buf = appendInt(buf, j.Wafer.Cols)
	d := j.Wafer.Die
	buf = appendFloat(buf, d.AreaMM2)
	buf = appendFloat(buf, d.WidthMM)
	buf = appendFloat(buf, d.HeightMM)
	buf = appendFloat(buf, d.SRAMBytes)
	buf = appendFloat(buf, d.HBMBytes)
	buf = appendInt(buf, d.HBMStacks)
	buf = appendFloat(buf, d.HBMBandwidth)
	buf = appendFloat(buf, d.HBMLatency)
	buf = appendFloat(buf, d.HBMEnergyPerBit)
	buf = appendFloat(buf, d.PeakFLOPS)
	buf = appendFloat(buf, d.FLOPSPerWatt)
	buf = appendFloat(buf, d.FrequencyHz)
	buf = appendFloat(buf, d.VectorFLOPS)
	l := j.Wafer.Link
	buf = appendFloat(buf, l.Bandwidth)
	buf = appendFloat(buf, l.Latency)
	buf = appendFloat(buf, l.EnergyPerBit)
	buf = appendFloat(buf, l.MaxReachMM)
	buf = appendFloat(buf, l.FECLatency)
	buf = appendFloat(buf, l.RampBytes)
	buf = appendFloat(buf, j.Wafer.IOBandwidth)
	buf = appendFloat(buf, j.Wafer.InterWaferBandwidth)
	buf = appendFloat(buf, j.Wafer.InterWaferLatency)

	// Parallel configuration.
	c := j.Config
	buf = appendInt(buf, c.DP)
	buf = appendInt(buf, c.TP)
	buf = appendInt(buf, c.SP)
	buf = appendInt(buf, c.CP)
	buf = appendInt(buf, c.TATP)
	buf = appendInt(buf, c.PP)
	buf = appendBool(buf, c.FSDP)
	buf = appendBool(buf, c.MegatronSP)

	// Options.
	o := j.Opts
	buf = appendInt(buf, int(o.Engine))
	buf = appendInt(buf, int(o.Recompute))
	buf = appendBool(buf, o.DistributedOptimizer)
	buf = appendInt(buf, o.Microbatch)
	buf = appendInt(buf, o.Wafers)
	buf = appendBool(buf, o.DisableStreamOverlap)
	buf = appendBool(buf, o.ForceStreamWeights)
	buf = appendBool(buf, o.NoFlashAttention)

	// Backend tier.
	buf = appendString(buf, j.Backend)
	return buf
}

func appendInt(buf []byte, v int) []byte { return appendU64(buf, uint64(int64(v))) }

func appendFloat(buf []byte, v float64) []byte { return appendU64(buf, math.Float64bits(v)) }

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendString(buf []byte, s string) []byte {
	buf = appendU64(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendU64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
