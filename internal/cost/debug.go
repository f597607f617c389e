package cost

import (
	"fmt"

	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/unit"
)

// Debug returns a per-component trace of one evaluation; used by the
// calibration tooling and kept exported for cmd/tempsim -debug.
func Debug(m model.Config, w hw.Wafer, cfg parallel.Config, o Options) string {
	cfg = cfg.Normalize()
	topo := mesh.FromWafer(w)
	state, err := stateFor(topo, cfg, o.Engine == SMap, o.Engine == TCMEEngine)
	if err != nil {
		return err.Error()
	}
	ev := &evaluator{m: m, w: w, cfg: cfg, o: o, topo: topo, st: state, graph: model.BlockGraph(m)}
	mb := o.microbatch()
	fwd, extra := ev.layerCompute(mb)
	st := ev.layerStreamComm(mb, 1, true)
	coll := ev.layerCollectives(mb)
	dp := ev.dpAllReduce(m.Layers)
	return fmt.Sprintf("fwd/layer=%s recomp=%s stream/layer=%s coll/layer=%s dpAR=%s",
		unit.Seconds(fwd), unit.Seconds(extra), unit.Seconds(st), unit.Seconds(coll), unit.Seconds(dp))
}
