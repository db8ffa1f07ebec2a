package workload

// MaxUncappedTimeout is the backoff cap a Request without MaxTimeout
// saturates at, for the black-box tests.
const MaxUncappedTimeout = maxUncappedTimeout
