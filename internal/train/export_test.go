package train

// Hooks for engine_golden_test.go, which drives internal/dist as well
// and therefore lives in the external train_test package.
var (
	ShardModel   = shardModel
	ShardBNModel = shardBNModel
	RunSharded   = runSharded
)
