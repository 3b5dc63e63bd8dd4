package shardstage_test

import (
	"testing"

	"github.com/dyngraph/churnnet/internal/lint/linttest"
	"github.com/dyngraph/churnnet/internal/lint/shardstage"
)

// TestShardstage drives the analyzer over the testdata tree: captured
// shared writes (append, ++, a fixed index) fire in forEachWorker
// callbacks, in Shards.ForEachShard callbacks and in go-launched literals;
// worker-index staging, atomic chunk claims, channel receives,
// literal-local scratch, and //churnvet:shardexempt (statement and
// function forms) do not.
func TestShardstage(t *testing.T) {
	linttest.Run(t, shardstage.Analyzer, "testdata",
		"churnvettest/internal/flood",
		"churnvettest/internal/graph",
	)
}
