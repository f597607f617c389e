package cost

import (
	"fmt"

	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/unit"
)

// Debug returns the layer terms of the analytic evaluation Evaluate
// runs — for the TEMP engine, those of the winning placement family;
// printed by cmd/tempsim -debug.
func Debug(m model.Config, w hw.Wafer, cfg parallel.Config, o Options) string {
	s := batchPool.Get().(*batchScratch)
	defer batchPool.Put(s)
	s.retarget(mesh.FromWafer(w))
	if _, err := s.priceOne(m, w, cfg.Normalize(), o, model.BlockGraph(m), false); err != nil {
		return err.Error()
	}
	return s.terms.String()
}

// String formats the terms as Debug prints them.
func (t layerTerms) String() string {
	return fmt.Sprintf("fwd/layer=%s recomp=%s stream/layer=%s coll/layer=%s dpAR=%s",
		unit.Seconds(t.fwd), unit.Seconds(t.recompute), unit.Seconds(t.stream), unit.Seconds(t.coll), unit.Seconds(t.dpAR))
}
