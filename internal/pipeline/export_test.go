package pipeline

// Test helpers shared with the external test package (pipeline_test),
// whose tests also drive the farm — a one-stage pipeline that an
// internal test cannot import without a cycle.
var (
	RandTopology = randTopology
	PropBuild    = propBuild
)
