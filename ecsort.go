// Package ecsort implements parallel equivalence class sorting: grouping n
// elements into their equivalence classes when the only available
// operation is a pairwise equivalence test ("are these two in the same
// class?") and no total order exists.
//
// It is a faithful implementation of Devanny, Goodrich, and Jetviroj,
// "Parallel Equivalence Class Sorting: Algorithms, Lower Bounds, and
// Distribution-Based Analysis" (SPAA 2016), in Valiant's parallel
// comparison model. Each regimen is an Algorithm value that Sort runs
// through a context.Context:
//
//   - CR(k) — O(k + log log n) rounds in the concurrent-read model
//     (Theorem 1), via the two-phase compounding-comparison technique;
//     CRUnknownK() adapts the schedule when k is not known.
//   - ER() — O(k log n) rounds in the exclusive-read model (Theorem 2).
//   - ConstRoundER(opt) — O(1) rounds in the exclusive-read model when the
//     smallest class has at least λn elements (Theorem 4), built on
//     unions of random Hamiltonian cycles; ConstRoundERAdaptive(opt)
//     halves λ until it succeeds.
//   - TwoClassER(maxRetries, seed) — O(1) ER rounds for inputs with at
//     most two classes.
//   - RoundRobin() — the sequential round-robin regimen of Jayapaul et
//     al., whose comparison count the distribution-based analysis of the
//     paper's Section 4 bounds.
//   - Naive() — the obvious sequential baseline.
//
// Inputs are abstracted as an Oracle: anything that can answer Same(i, j)
// for elements 0..N()-1. The package ships oracles for the paper's three
// motivating applications — cryptographic secret handshakes, generalized
// fault (malware-state) diagnosis, and graph mining by isomorphism — plus
// a plain label oracle and the paper's Section 3 lower-bound adversaries,
// which are adaptive oracles that force any algorithm to spend Ω(n²/f)
// comparisons.
//
// Sort checks cancellation between parallel rounds (see v2.go). Auto
// plans the cheapest applicable regimen from workload Hints,
// Algorithms/AlgorithmByName expose the name registry, and Classify is
// a typed generic front end over any slice plus equivalence predicate.
//
// Costs are accounted in Valiant's model: only equivalence tests count,
// grouped into parallel rounds. Result.Stats reports total comparisons,
// rounds, and the widest round.
package ecsort

import (
	"math/rand"

	"ecsort/internal/adversary"
	"ecsort/internal/agents"
	"ecsort/internal/core"
	"ecsort/internal/dist"
	"ecsort/internal/majority"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
	"ecsort/internal/runtime"
	"ecsort/internal/service"
)

// Oracle answers equivalence tests over elements 0..N()-1. Implementations
// must be safe for concurrent use; parallel rounds may issue tests from
// several goroutines.
type Oracle = model.Oracle

// BatchOracle is an optional Oracle capability: answer a whole chunk of
// equivalence tests in one call. Sessions detect it once at
// construction and then invoke the oracle once per worker-pool chunk
// instead of once per pair, with bit-identical stats, round logs, and
// partition fingerprints. Implement it on oracles whose answers carry
// per-call overhead (network round trips, protocol sessions,
// middleware cycles).
type BatchOracle = model.BatchOracle

// Mode selects the read-concurrency rule of the comparison model.
type Mode = model.Mode

// Comparison model variants. (v1 named these ER and CR; those names now
// belong to the Algorithm constructors, so the constants carry a Mode
// prefix.)
const (
	// ModeER (exclusive read): each element joins at most one comparison
	// per round — elements perform the tests themselves (secret
	// handshakes, fault probes).
	ModeER = model.ER
	// ModeCR (concurrent read): an element may join many comparisons per
	// round — elements are passive objects (graphs under isomorphism
	// tests).
	ModeCR = model.CR
)

// Pair is a single equivalence test between two elements.
type Pair = model.Pair

// Stats is the cost of a run in Valiant's model.
type Stats = model.Stats

// Result is a completed sort: the equivalence classes plus the cost that
// produced them.
type Result = core.Result

// Session executes comparison rounds against an oracle with full cost
// accounting; use it to build custom algorithms on the same substrate.
type Session = model.Session

// Runtime is a persistent worker pool executing parallel comparison
// rounds: a fixed set of long-lived goroutines that claim chunked index
// ranges of each round, write answers by index (so any Workers value is
// bit-identical to Workers(1)), and allocate nothing in steady state.
// One Runtime may be shared by any number of sessions — the
// classification service runs every collection on a single pool.
type Runtime = runtime.Pool

// RuntimeStats is a snapshot of a Runtime's counters: parallel width,
// jobs, chunks, and inline (serial) rounds.
type RuntimeStats = runtime.Stats

// NewRuntime starts a pool of the given parallel width (0 means
// GOMAXPROCS). Close it when no session uses it anymore.
func NewRuntime(workers int) *Runtime { return runtime.NewPool(workers) }

// DefaultRuntime returns the process-wide shared pool that sessions use
// when Config.Runtime is nil. It is created on first use and never
// closed.
func DefaultRuntime() *Runtime { return runtime.Shared() }

// Config tunes session execution. The zero value is ready to use.
type Config struct {
	// Processors caps comparisons per physical round (Valiant's p).
	// 0 means n, the paper's setting.
	Processors int
	// Workers is the parallel width of each round: the maximum number
	// of chunks a round is split into on the runtime pool. 0 means
	// GOMAXPROCS. Use 1 with order-sensitive oracles (adversaries).
	Workers int
	// Runtime is the worker pool rounds execute on. nil means the
	// process-wide shared pool (DefaultRuntime).
	Runtime *Runtime
}

func (c Config) options() []model.Option {
	var opts []model.Option
	if c.Processors > 0 {
		opts = append(opts, model.Processors(c.Processors))
	}
	if c.Workers != 0 {
		// Negative values flow through so model.Workers can reject them
		// loudly (ErrBadWorkers) instead of being silently dropped here.
		opts = append(opts, model.Workers(c.Workers))
	}
	if c.Runtime != nil {
		opts = append(opts, model.WithPool(c.Runtime))
	}
	return opts
}

// NewSession creates a cost-accounting session in the given mode.
func NewSession(o Oracle, mode Mode, cfg Config) *Session {
	return model.NewSession(o, mode, cfg.options()...)
}

// ConstRoundOptions configures ConstRoundER and ConstRoundERAdaptive.
type ConstRoundOptions struct {
	// Lambda is the guaranteed lower bound on (smallest class size)/n,
	// in (0, 0.4]. Required. If unknown, start at 0.4 and halve on
	// ErrConstRoundFailed, as the paper suggests.
	Lambda float64
	// D overrides the number of random Hamiltonian cycles; 0 selects
	// the theory constant d(λ), which is safe but pessimistic.
	D int
	// MaxRetries redraws the random graph after a failure.
	MaxRetries int
	// Seed drives the random cycles.
	Seed int64
}

// ErrConstRoundFailed is returned by the ConstRoundER regimen when the
// randomized algorithm could not classify every element — in practice,
// when Lambda overestimates ℓ/n.
var ErrConstRoundFailed = core.ErrConstRoundFailed

// ErrAdaptiveExhausted is returned by the ConstRoundERAdaptive regimen
// when halving λ reached its floor without success.
var ErrAdaptiveExhausted = core.ErrAdaptiveExhausted

// Majority finds an element of the strict-majority class (> n/2 members)
// with ≤ 2(n−1) equivalence tests (Boyer–Moore MJRTY + verification),
// returning the candidate, its exact class size, and whether it is a
// strict majority — one of the related problems (Section 1.1) this
// substrate solves directly.
func Majority(o Oracle, cfg Config) (candidate, size int, isMajority bool) {
	return majority.Majority(NewSession(o, ModeER, cfg))
}

// LargestClass finds an element of the largest equivalence class (the
// comparison-model "mode") and its size.
func LargestClass(o Oracle, cfg Config) (candidate, size int) {
	return majority.Mode(NewSession(o, ModeER, cfg))
}

// SameClassification reports whether two labelings induce the same
// partition, ignoring label values.
func SameClassification(a, b []int) bool { return core.SameClassification(a, b) }

// Certify verifies a claimed classification against an oracle with the
// minimum certificate: each element against its class representative plus
// all representative pairs — n−k+(k choose 2) tests in shared ER rounds.
// It returns nil iff the classes are correct and complete.
func Certify(o Oracle, classes [][]int, cfg Config) error {
	return core.Certify(NewSession(o, ModeER, cfg), classes)
}

// Recorder wraps an oracle and keeps a transcript of every test — useful
// for debugging custom algorithms (e.g. detecting repeated pairs). Use
// with Config{Workers: 1} for an ordered transcript.
type Recorder = model.Recorder

// NewRecorder wraps an oracle with a recording layer.
func NewRecorder(o Oracle) *Recorder { return model.NewRecorder(o) }

// Incremental maintains a complete classification while elements arrive
// over time (the online counterpart of CR). Each fold tests the buffered
// arrivals against one representative per existing class, then merges
// only the arrivals that matched nothing as a CR group.
type Incremental = core.Incremental

// NewIncremental creates an incremental sorter over the oracle's
// universe; elements are classified as they are Added. Since the
// representative-first fold, a flush of p arrivals over k classes costs
// p·k tests plus the pairs among arrivals of new classes, where it used
// to test every pending pair: Stats report far fewer comparisons and
// rounds for the same classes, and Snapshot lists existing classes
// first, in their previous order.
func NewIncremental(o Oracle, cfg Config) (*Incremental, error) {
	return core.NewIncremental(NewSession(o, ModeCR, cfg))
}

//
// Classification service (the online, sharded front end; cmd/ecs-serve).
//

// ServiceConfig tunes the sharded classification service: shard count,
// batching policy, snapshot staleness bound, and per-session processor
// and worker budgets. The zero value is ready to use.
type ServiceConfig = service.Config

// Service is a long-running classification engine: named collections,
// each an Incremental sorter over a pluggable oracle, sharded across
// single-writer goroutines with batched compounding flushes and
// copy-on-flush snapshots for lock-free reads. Serve it over HTTP with
// its Handler method (see cmd/ecs-serve) or drive it in process.
type Service = service.Service

// NewService starts a classification service; Close it when done. It
// panics if durable recovery fails — use OpenService when
// ServiceConfig.DataDir is set.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// OpenService starts a classification service, first recovering durable
// state (checkpoint + write-ahead-log replay) when ServiceConfig.DataDir
// is set. Recovered collections are bit-identical — classes and cost
// stats — to the pre-restart state implied by the log. See
// docs/PERSISTENCE.md for the on-disk format and crash-safety protocol.
func OpenService(cfg ServiceConfig) (*Service, error) { return service.Open(cfg) }

// ServiceRecoveryInfo summarizes what OpenService rebuilt from the data
// directory (collections restored, WAL records replayed, torn tails
// truncated, wall time) — exposed by Service.Recovery and /metrics.
type ServiceRecoveryInfo = service.RecoveryInfo

// OracleSpec declares the equivalence oracle behind a service
// collection: one of the paper's applications (secret handshakes —
// in-process or over a message-passing agent network —, fault
// diagnosis, graph isomorphism) or the plain label oracle.
type OracleSpec = service.OracleSpec

// GraphSpec is the wire form of one graph in a graph-iso OracleSpec.
type GraphSpec = service.GraphSpec

// Oracle kinds accepted by OracleSpec.Kind.
const (
	OracleKindLabel           = service.KindLabel
	OracleKindHandshake       = service.KindHandshake
	OracleKindHandshakeAgents = service.KindHandshakeAgents
	OracleKindFault           = service.KindFault
	OracleKindFaultAgents     = service.KindFaultAgents
	OracleKindGraphIso        = service.KindGraphIso
)

// ServiceSnapshot is a collection's published answer: the partition at
// the last flush plus the session cost that produced it. Snapshots are
// flat underneath — one backing array plus an element→class index — so
// publication is a pair of memmoves and ClassIndexOf is an O(1) lookup.
type ServiceSnapshot = service.Snapshot

// ServiceClassView is one element's class as served from a collection
// snapshot: the payload of the service's O(1) ClassOf point lookup
// (GET /v1/collections/{key}/classes/{element}).
type ServiceClassView = service.ClassView

// ServiceChurnResult summarizes one service churn operation — a delete
// or a class invalidation — as returned by Service.DeleteItem and
// Service.InvalidateClass.
type ServiceChurnResult = service.ChurnResult

// FaultSpec declares an injected fault profile for a collection's
// oracle (errors, silently flipped answers, latency, a stuck-after
// point) — the chaos-testing half of the fault-tolerance layer.
type FaultSpec = service.FaultSpec

// ResilienceSpec tunes the oracle fault-tolerance middleware riding
// over a collection's oracle: per-ask timeout, bounded retries with
// jittered backoff, k-of-n majority voting, and the circuit breaker
// that degrades the collection to read-only. See the README's Fault
// tolerance section.
type ResilienceSpec = service.ResilienceSpec

// RepairConfig tunes the background self-repair daemon: sweep interval,
// samples per collection, and the sampling distribution over the
// class-ordered element frame. See docs/REPAIR.md.
type RepairConfig = service.RepairConfig

// RepairReport summarizes one self-repair sweep (Service.RepairSweep):
// pairs sampled, divergences found, corrections applied.
type RepairReport = service.RepairReport

// StressConfig shapes a synthetic concurrent ingestion workload for
// service benchmarking.
type StressConfig = service.StressConfig

// StressReport is the measured outcome of RunServiceStress.
type StressReport = service.StressReport

// RunServiceStress drives a fresh service with concurrent batched
// ingestion, verifies every collection's final answer, and reports
// wall-clock throughput.
func RunServiceStress(cfg StressConfig) (StressReport, error) {
	return service.RunStress(cfg)
}

//
// Oracles.
//

// LabelOracle answers from explicit class labels.
type LabelOracle = oracle.Label

// NewLabelOracle builds an oracle where elements i and j are equivalent
// iff labels[i] == labels[j].
func NewLabelOracle(labels []int) *LabelOracle { return oracle.NewLabel(labels) }

// HandshakeOracle simulates cryptographic secret handshakes: each test
// runs an HMAC-SHA256 challenge–response between two agent goroutines.
type HandshakeOracle = oracle.Handshake

// NewHandshakeOracle enrolls agents into groups given by labels; agents
// in one group share a key derived from a master secret seeded by seed.
func NewHandshakeOracle(labels []int, seed int64) *HandshakeOracle {
	return oracle.NewHandshake(labels, seed)
}

// FaultOracle simulates generalized fault diagnosis over hidden malware
// states (worm-infection bitmasks).
type FaultOracle = oracle.Fault

// NewFaultOracle builds the oracle from explicit worm bitmasks.
func NewFaultOracle(states []uint64) *FaultOracle { return oracle.NewFault(states) }

// RandomInfections infects n machines with numWorms worms independently
// with probability p each.
func RandomInfections(n, numWorms int, p float64, rng *rand.Rand) *FaultOracle {
	return oracle.RandomInfections(n, numWorms, p, rng)
}

// Graph is a small simple undirected graph for the graph-mining oracle.
type Graph = oracle.Graph

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return oracle.NewGraph(n) }

// Isomorphic decides graph isomorphism (WL refinement + backtracking).
func Isomorphic(a, b *Graph) bool { return oracle.Isomorphic(a, b) }

// GraphIsoOracle classifies a collection of graphs by isomorphism.
type GraphIsoOracle = oracle.GraphIso

// NewGraphIsoOracle wraps a graph collection.
func NewGraphIsoOracle(graphs []*Graph) *GraphIsoOracle { return oracle.NewGraphIso(graphs) }

// RandomGraphCollection realizes class labels as permuted copies of
// pairwise non-isomorphic random base graphs on `vertices` vertices.
func RandomGraphCollection(labels []int, vertices int, rng *rand.Rand) *GraphIsoOracle {
	return oracle.RandomGraphCollection(labels, vertices, rng)
}

// CanonicalCertificate returns a canonical-form string for g: two graphs
// are isomorphic iff their certificates are equal (WL refinement +
// branch-and-bound minimal adjacency encoding).
func CanonicalCertificate(g *Graph) string { return oracle.Canonical(g) }

// GraphIsoCachedOracle is the graph-mining oracle with canonical-form
// caching: one certificate per graph up front, then every test is a
// string comparison — the practical engine for large mining workloads.
type GraphIsoCachedOracle = oracle.GraphIsoCached

// NewGraphIsoCachedOracle wraps a collection, precomputing certificates.
func NewGraphIsoCachedOracle(graphs []*Graph) *GraphIsoCachedOracle {
	return oracle.NewGraphIsoCached(graphs)
}

//
// Distributed agent networks (the ER model's physical reality).
//

// Agent is one autonomous participant in a distributed equivalence
// protocol; see AgentNetwork.
type Agent = agents.Agent

// AgentNetwork simulates n message-passing agents; it executes whole
// comparison rounds as concurrent pairwise protocol sessions and
// physically enforces the one-handshake-per-agent-per-round ER rule.
type AgentNetwork = agents.Network

// NewAgentNetwork wraps a roster of agents.
func NewAgentNetwork(roster []Agent) *AgentNetwork { return agents.NewNetwork(roster) }

// KeyAgents builds secret-handshake agents: one HMAC group key per
// distinct label, derived from masterSeed.
func KeyAgents(labels []int, masterSeed int64) []Agent {
	return agents.GroupKeys(labels, masterSeed)
}

// StateAgents builds fault-diagnosis agents comparing private state
// values via salted digests.
func StateAgents(states []uint64) []Agent { return agents.StateRoster(states) }

// NewAgentSession creates an ER session whose rounds execute on the
// network — each comparison is a real two-goroutine protocol run. The
// network's protocol sessions dispatch from cfg.Runtime, or from the
// shared pool when it is nil. The binding is per-session: each call gets
// its own bound executor, so creating a second session over the same
// network never re-routes an earlier session's rounds. Every ER
// Algorithm accepts the returned session, e.g.:
//
//	nw := ecsort.NewAgentNetwork(ecsort.KeyAgents(labels, seed))
//	res, err := ecsort.ER().Sort(ctx, ecsort.NewAgentSession(nw, ecsort.Config{}))
func NewAgentSession(nw *AgentNetwork, cfg Config) *Session {
	opts := append(cfg.options(), model.WithExecutor(nw.Bound(cfg.Runtime)))
	return model.NewSession(nw, ModeER, opts...)
}

//
// Distributions (Section 4).
//

// Distribution is a probability distribution over class indices ordered
// most-to-least likely.
type Distribution = dist.Distribution

// NewUniform returns the uniform distribution on k classes.
func NewUniform(k int) Distribution { return dist.NewUniform(k) }

// NewGeometric returns the geometric distribution: class i has
// probability pⁱ(1−p).
func NewGeometric(p float64) Distribution { return dist.NewGeometric(p) }

// NewPoisson returns the Poisson distribution with rate lambda.
func NewPoisson(lambda float64) Distribution { return dist.NewPoisson(lambda) }

// NewZeta returns the zeta (Zipf) distribution with exponent s > 1.
func NewZeta(s float64) Distribution { return dist.NewZeta(s) }

// SampleLabels draws n independent class labels from d.
func SampleLabels(d Distribution, n int, rng *rand.Rand) []int {
	return dist.Labels(d, n, rng)
}

//
// Lower-bound adversaries (Section 3).
//

// Adversary is an adaptive oracle realizing the paper's lower bounds; run
// algorithms against it with Config{Workers: 1}.
type Adversary = adversary.Adversary

// NewEqualSizeAdversary forces Ω(n²/f) comparisons on any algorithm when
// every class must end with exactly f elements (Theorem 5). f must
// divide n.
func NewEqualSizeAdversary(n, f int) *Adversary { return adversary.NewEqualSize(n, f) }

// NewSmallestClassAdversary forces Ω(n²/ℓ) comparisons before any
// algorithm can identify a member of the smallest class (Theorem 6).
func NewSmallestClassAdversary(n, l int) *Adversary { return adversary.NewSmallestClass(n, l) }
