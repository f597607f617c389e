package sim

// BatchSpecs exposes the mixed scenario batch to the external tests.
var BatchSpecs = batchSpecs
