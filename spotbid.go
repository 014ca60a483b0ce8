// Package spotbid is a faithful reproduction of "How to Bid the
// Cloud" (Zheng, Joe-Wong, Tan, Chiang, Wang — SIGCOMM 2015): optimal
// bidding strategies for auction-priced cloud spot instances,
// together with the provider-side spot-price model the strategies are
// derived from and a complete simulated EC2 substrate to evaluate
// them on.
//
// The package is a facade: it re-exports the library's public surface
// so downstream users import one path. The implementation lives in
// the internal packages:
//
//   - internal/core      — the bidding strategies (Prop. 4/5, Eq. 19/20)
//   - internal/market    — the provider model (§4): price optimization,
//     queue dynamics, equilibrium price distribution
//   - internal/dist      — hand-rolled probability distributions
//   - internal/stats     — fitting, KS test, histograms
//   - internal/trace     — spot-price histories and the calibrated
//     synthetic generator
//   - internal/cloud     — the simulated EC2 region (spot + on-demand)
//   - internal/job       — single-instance job execution and billing
//   - internal/mapreduce — the master/slave MapReduce engine
//   - internal/client    — the Fig. 1 bidding client
//   - internal/strategy  — the pluggable bidding-strategy engine the
//     client delegates to (incumbents + contenders, one registry)
//   - internal/serve     — the degradation-aware bid-advisory control
//     plane (staleness tiers, admission control, audit ledger) behind
//     the cmd/spotbidd HTTP daemon
//   - internal/experiments — regeneration of every table and figure
//
// # Quickstart
//
//	history, _ := spotbid.GenerateTrace(spotbid.R3XLarge, spotbid.GenOptions{})
//	ecdf, _ := history.ECDF(0)
//	m := spotbid.Market{Price: ecdf, OnDemand: 0.35}
//	bid, _ := m.PersistentBid(spotbid.Job{Exec: 1, Recovery: spotbid.Seconds(30)})
//	fmt.Printf("bid $%.4f/h, expected cost $%.4f\n", bid.Price, bid.ExpectedCost)
//
// See the examples/ directory for runnable programs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology.
package spotbid

import (
	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/forecast"
	"repro/internal/instances"
	"repro/internal/invariant"
	"repro/internal/job"
	"repro/internal/lanes"
	"repro/internal/mapreduce"
	"repro/internal/market"
	"repro/internal/obs/event"
	"repro/internal/obs/tsdb"
	"repro/internal/retry"
	"repro/internal/serve"
	"repro/internal/strategy"
	"repro/internal/timeslot"
	"repro/internal/trace"
	"repro/internal/workflow"
)

// Time units (see internal/timeslot).
type (
	// Hours is a duration in hours, the paper's time unit.
	Hours = timeslot.Hours
	// Grid is a discrete slot grid.
	Grid = timeslot.Grid
)

// DefaultSlot is the five-minute pricing slot t_k.
const DefaultSlot = timeslot.DefaultSlot

// Seconds converts seconds to Hours (t_r = Seconds(30)).
func Seconds(s float64) Hours { return timeslot.Seconds(s) }

// NewGrid returns a slot grid with the given slot length.
func NewGrid(slot Hours) Grid { return timeslot.NewGrid(slot) }

// Probability distributions (see internal/dist).
type (
	// Dist is a univariate continuous distribution.
	Dist = dist.Dist
	// Pareto, Exponential, Uniform are the parametric families the
	// paper uses; Empirical is an ECDF built from a price history;
	// Mixture composes components.
	Pareto      = dist.Pareto
	Exponential = dist.Exponential
	Uniform     = dist.Uniform
	Empirical   = dist.Empirical
	Mixture     = dist.Mixture
)

// Distribution constructors.
var (
	NewPareto      = dist.NewPareto
	NewExponential = dist.NewExponential
	NewUniform     = dist.NewUniform
	NewEmpirical   = dist.NewEmpirical
	NewMixture     = dist.NewMixture
)

// The provider model (§4; see internal/market).
type (
	// Provider holds (π̲, π̄, β, θ).
	Provider = market.Provider
	// EquilibriumPriceDist is the spot-price distribution induced by
	// an arrival process (Prop. 2–3).
	EquilibriumPriceDist = market.EquilibriumPriceDist
	// MarketSimulator runs the full queue dynamics (Fig. 2).
	MarketSimulator = market.Simulator
)

// NewEquilibriumPriceDist builds the equilibrium price distribution.
var NewEquilibriumPriceDist = market.NewEquilibriumPriceDist

// The bidding strategies (§5–6; see internal/core).
type (
	// Market is a spot market seen by the bidder: F_π + π̄ + t_k.
	Market = core.Market
	// Job is a single-instance job (t_s, t_r).
	Job = core.Job
	// Bid is a bidding decision with its analytic predictions.
	Bid = core.Bid
	// MapReduceJob is the parallel job of §6.
	MapReduceJob = core.MapReduceJob
	// Plan is a complete master+slave bidding plan (Eq. 20).
	Plan = core.Plan
	// DeadlineJob is the §8 risk-averse variant: a hard deadline
	// with a bounded miss probability.
	DeadlineJob = core.DeadlineJob
)

// ErrInfeasible reports a job that no feasible bid can serve (Eq. 14).
var ErrInfeasible = core.ErrInfeasible

// Eq14Feasible is the closed-form satisfiability test of the Eq. 14
// interruptibility constraint below a bid ceiling; the serving layer
// uses it as the honest-refusal criterion.
var Eq14Feasible = core.Eq14Feasible

// PlanMapReduce solves the joint master/slave problem of Eq. 20.
var PlanMapReduce = core.PlanMapReduce

// MarketOption is one row of a cross-type market ranking.
type MarketOption = core.Option

// RankMarkets sorts candidate markets by a job's expected cost.
var RankMarkets = core.RankMarkets

// The instance catalog (Table 2; see internal/instances).
type (
	// InstanceType names an EC2 instance type.
	InstanceType = instances.Type
	// InstanceSpec is its size and on-demand price.
	InstanceSpec = instances.Spec
)

// The paper's instance types.
const (
	M1XLarge = instances.M1XLarge
	M3XLarge = instances.M3XLarge
	M32XL    = instances.M32XL
	R3XLarge = instances.R3XLarge
	R32XL    = instances.R32XL
	R34XL    = instances.R34XL
	C3XLarge = instances.C3XLarge
	C32XL    = instances.C32XL
	C34XL    = instances.C34XL
	C38XL    = instances.C38XL
)

// Catalog access.
var (
	LookupInstance = instances.Lookup
	AllInstances   = instances.All
)

// Spot-price histories (see internal/trace).
type (
	// Trace is a slot-regular price history.
	Trace = trace.Trace
	// GenOptions tunes the calibrated synthetic generator.
	GenOptions = trace.GenOptions
	// Calibration is a type's generative parameters.
	Calibration = trace.Calibration
	// TraceSummary is a descriptive digest of a price history.
	TraceSummary = trace.Summary
)

// Trace construction and generation.
var (
	NewTrace       = trace.New
	GenerateTrace  = trace.Generate
	ReadTraceCSV   = trace.ReadCSV
	CalibrationFor = trace.CalibrationFor
)

// The simulated cloud (see internal/cloud, internal/job,
// internal/checkpoint).
type (
	// Region is the simulated EC2 region.
	Region = cloud.Region
	// SpotRequest and Instance mirror the EC2 API objects.
	SpotRequest = cloud.SpotRequest
	Instance    = cloud.Instance
	// RequestKind is one-time vs persistent.
	RequestKind = cloud.RequestKind
	// JobSpec, JobOutcome, JobTracker run jobs against a region.
	JobSpec    = job.Spec
	JobOutcome = job.Outcome
	JobTracker = job.Tracker
	// Volume is the checkpoint store.
	Volume = checkpoint.Volume
)

// Request kinds.
const (
	OneTime    = cloud.OneTime
	Persistent = cloud.Persistent
)

// Cloud construction and job execution.
var (
	NewRegion      = cloud.NewRegion
	ErrEndOfTrace  = cloud.ErrEndOfTrace
	NewSpotJob     = job.NewSpotJob
	NewOnDemandJob = job.NewOnDemandJob
	RunJob         = job.Run
	NewVolume      = checkpoint.NewVolume
)

// MapReduce (see internal/mapreduce).
type (
	// Corpus is a document set; MRConfig and MRResult parameterize
	// and summarize an engine run.
	Corpus   = mapreduce.Corpus
	MRConfig = mapreduce.Config
	MRResult = mapreduce.Result
	// MRNodeSpec provisions a node role.
	MRNodeSpec = mapreduce.NodeSpec
	// WordCountJob is the canonical §7.2 job.
	WordCountJob = mapreduce.WordCount
)

// MapReduce helpers.
var (
	GenerateCorpus = mapreduce.GenerateCorpus
	RunMapReduce   = mapreduce.Run
	CountWords     = mapreduce.CountWords
	TopWords       = mapreduce.TopWords
)

// Billing modes (see internal/cloud/billing.go).
type BillingMode = cloud.BillingMode

// PerSlotBilling is the paper's continuous-limit model; HourlyBilling
// reproduces Amazon's 2014 instance-hour rules (partial hours free on
// provider termination).
const (
	PerSlotBilling = cloud.PerSlot
	HourlyBilling  = cloud.Hourly
)

// Price forecasting (the §5 alternative; see internal/forecast).
type (
	// Predictor forecasts future prices from a history window.
	Predictor = forecast.Predictor
	// NaivePredictor, SMAPredictor, EWMAPredictor, AR1Predictor are
	// the built-in models.
	NaivePredictor = forecast.Naive
	SMAPredictor   = forecast.SMA
	EWMAPredictor  = forecast.EWMA
	AR1Predictor   = forecast.AR1
	// ForecastErrors summarizes a rolling evaluation.
	ForecastErrors = forecast.Errors
)

// EvaluateForecast runs a rolling-origin forecast evaluation.
var EvaluateForecast = forecast.Evaluate

// DAG workflows (the §8 "task dependence" extension; see
// internal/workflow).
type (
	// WorkflowTask is one DAG node; Workflow the validated DAG;
	// WorkflowRunner executes it, bidding on each task only once its
	// dependencies complete; WorkflowResult summarizes the run.
	WorkflowTask   = workflow.Task
	Workflow       = workflow.Workflow
	WorkflowRunner = workflow.Runner
	WorkflowResult = workflow.Result
)

// NewWorkflow validates and builds a task DAG.
var NewWorkflow = workflow.New

// Fault injection (see internal/chaos) and the client's
// fault-handling policy (see internal/retry).
type (
	// ChaosConfig selects fault types and rates; ChaosInjector is the
	// seeded injector a Region and Volume are armed with; ChaosStats
	// counts injected faults.
	ChaosConfig   = chaos.Config
	ChaosInjector = chaos.Injector
	ChaosStats    = chaos.Stats
	// RetryPolicy is the client's capped-exponential-backoff budget
	// for transient API faults.
	RetryPolicy = retry.Policy
)

// Chaos and retry constructors.
var (
	NewChaos     = chaos.New
	UniformChaos = chaos.Uniform
	DefaultRetry = retry.Default
)

// Explicit fault schedules and the resilience verification subsystem
// (see internal/chaos and internal/invariant): FaultSchedule pins an
// exact fault incident list, NewFaultSchedule arms it RNG-free, and
// the invariant scenario/campaign types drive the runtime invariant
// checkers over enumerated schedules with shrinking.
type (
	// FaultAt is one scheduled fault episode; FaultSchedule an
	// explicit incident list; FaultScheduleInjector the deterministic
	// injector delivering exactly those faults.
	FaultAt               = chaos.FaultAt
	FaultKind             = chaos.FaultKind
	FaultSchedule         = chaos.Schedule
	FaultScheduleInjector = chaos.ScheduleInjector
	// InvariantViolation is one invariant breach; InvariantScenario
	// the fleet run the fault-schedule explorer perturbs;
	// InvariantGrid the schedule lattice; CampaignReport the audited
	// campaign summary.
	InvariantViolation = invariant.Violation
	InvariantScenario  = invariant.Scenario
	InvariantGrid      = invariant.Grid
	CampaignReport     = invariant.CampaignReport
)

// The schedulable fault kinds.
const (
	FaultAPI            = chaos.FaultAPI
	FaultRegionOutage   = chaos.FaultRegionOutage
	FaultCapacityOutage = chaos.FaultCapacityOutage
	FaultStaleHistory   = chaos.FaultStaleHistory
	FaultOutbidDelay    = chaos.FaultOutbidDelay
	FaultCheckpointFail = chaos.FaultCheckpointFail
)

// Resilience-verification constructors: the schedule injector, the
// per-run checker suite, the default schedule lattice, the shrinker,
// and the parallel campaign driver.
var (
	NewFaultSchedule     = chaos.NewSchedule
	NewInvariantSuite    = invariant.NewSuite
	DefaultInvariantGrid = invariant.DefaultGrid
	ShrinkFaultSchedule  = invariant.Shrink
	ResilienceCampaign   = experiments.ResilienceCampaign
)

// Transient and Permanent classify errors for the retry policy;
// IsTransient queries the classification.
var (
	Transient   = retry.Transient
	Permanent   = retry.Permanent
	IsTransient = retry.IsTransient
)

// The bidding client (Fig. 1; see internal/client).
type (
	// Client glues price monitor, bid calculator, and job monitor.
	Client = client.Client
	// Telemetry records the degradation a run absorbed (stale
	// estimates, retries, on-demand fallback).
	Telemetry = client.Telemetry
	// Report pairs analytic predictions with measured outcomes.
	Report = client.Report
	// MapReduceSpec and MapReduceReport are the parallel-job
	// equivalents.
	MapReduceSpec   = client.MapReduceSpec
	MapReduceReport = client.MapReduceReport
	// FallbackReport summarizes a one-time-with-on-demand-fallback
	// run (§3.2's completion-control playbook).
	FallbackReport = client.FallbackReport
)

// NewClient builds a client for a region.
var NewClient = client.New

// The struct-of-arrays lane batch engine (see internal/lanes):
// advances every (market, kind, tenant) lane of a simulated spot
// fleet in one cache-friendly pass over contiguous arrays, with
// per-lane RNG streams seeded by lane index so results are
// bit-identical at any GOMAXPROCS.
type (
	// LanesConfig sizes a fleet simulation; LanesEngine is the batch
	// engine; LanesReport the per-cohort summary with LanesRow rows.
	LanesConfig = lanes.Config
	LanesEngine = lanes.Engine
	LanesReport = lanes.Report
	LanesRow    = lanes.Row
)

// NewLanes builds the lane engine and its live-window quote grid.
var NewLanes = lanes.New

// The pluggable bidding-strategy engine (see internal/strategy): the
// Strategy interface the client delegates every bid decision to, the
// registered incumbents and contenders, and the registry. Run one with
// Client.RunStrategy.
type (
	// Strategy decides how a job is run; AdaptiveStrategy additionally
	// revises its decision mid-run (Reprice).
	Strategy         = strategy.Strategy
	AdaptiveStrategy = strategy.Adaptive
	// StrategyObservation is the market/job snapshot a strategy sees;
	// StrategyDecision its verdict; StrategyTranche one slice of a
	// split decision; StrategyInfo the registry metadata.
	StrategyObservation = strategy.Observation
	StrategyDecision    = strategy.Decision
	StrategyTranche     = strategy.Tranche
	StrategyInfo        = strategy.Info
	// The concrete strategies: the paper's Prop. 4 / Prop. 5 optima,
	// the empirical-percentile and fixed-bid baselines, the hindsight
	// oracle, the on-demand control, and the three contenders — a PID
	// price-tracking controller, a spot+on-demand portfolio splitter,
	// and an AutoSpotting-style opportunistic replacer.
	OneTimeStrategy     = strategy.OneTime
	PersistentStrategy  = strategy.Persistent
	PercentileStrategy  = strategy.Percentile
	FixedBidStrategy    = strategy.FixedBid
	BestOfflineStrategy = strategy.BestOffline
	OnDemandStrategy    = strategy.OnDemand
	PIDStrategy         = strategy.PID
	PortfolioStrategy   = strategy.Portfolio
	AutoSpotStrategy    = strategy.AutoSpot
)

// Strategy registry access: construct a registered strategy by name,
// list the league, look up metadata, register a custom contender.
var (
	NewStrategy      = strategy.New
	StrategyNames    = strategy.Names
	LookupStrategy   = strategy.Lookup
	RegisterStrategy = strategy.Register
)

// The strategy tournament (see internal/experiments): every registered
// strategy raced across the chaos grid, each cell audited by the
// invariant suite and replay-verified, ranked into a league table.
type (
	// ExperimentOpts parameterizes the experiment sweeps (seed, runs,
	// optional metrics registry and flight recorder).
	ExperimentOpts   = experiments.Opts
	TournamentResult = experiments.TournamentResult
	TournamentRow    = experiments.TournamentRow
	TournamentCell   = experiments.TournamentCell
)

// Tournament runs the strategy league.
var Tournament = experiments.Tournament

// The multi-region fleet controller (see internal/fleet): supervised
// clients across regions with circuit breakers, checkpoint migration,
// and cross-market failover.
type (
	// FleetController supervises one job across member regions.
	FleetController = fleet.Controller
	// FleetMember binds a region and its client under one ID.
	FleetMember = fleet.Member
	// FleetConfig attaches observers to a fleet controller: its own
	// metrics registry, a flight recorder and a per-slot hook. The
	// breaker thresholds and the 60 s migration penalty are fixed.
	FleetConfig = fleet.Config
	// FleetReport is a fleet run: legs, failover schedule, merged outcome.
	FleetReport = fleet.Report
	// BreakerState is a member's circuit-breaker state.
	BreakerState = fleet.BreakerState
)

// Breaker states.
const (
	BreakerClosed   = fleet.Closed
	BreakerOpen     = fleet.Open
	BreakerHalfOpen = fleet.HalfOpen
)

// NewFleet builds a fleet controller over member regions.
var NewFleet = fleet.NewController

// ErrBreakerOpen aborts a member client's run when its breaker trips.
var ErrBreakerOpen = fleet.ErrBreakerOpen

// The deterministic flight recorder (see internal/obs/event):
// slot-indexed structured events with causal job spans, exportable as
// JSONL, Chrome trace-viewer JSON, or a plain-text timeline. Install
// with Client.SetTrace, Region.SetTrace, or FleetConfig.Trace.
type (
	// TraceRecorder is the flight recorder; a nil *TraceRecorder is
	// the no-op default.
	TraceRecorder = event.Recorder
	// TraceEvent is one recorded event; TraceSpan one causal-tree node.
	TraceEvent = event.Event
	TraceSpan  = event.Span
	// TraceEventKind labels event types (TraceBidSubmitted, ...).
	TraceEventKind = event.Kind
)

// NewRecorder builds an empty flight recorder, which keeps every event
// and span it is given until Reset.
var NewRecorder = event.NewRecorder

// Flight-recorder event kinds.
const (
	TraceBidSubmitted      = event.BidSubmitted
	TraceBidAccepted       = event.BidAccepted
	TraceOutBid            = event.OutBid
	TraceOutBidDelayed     = event.OutBidDelayed
	TraceLaunchBlocked     = event.LaunchBlocked
	TracePriceSet          = event.PriceSet
	TraceRetryAttempt      = event.RetryAttempt
	TraceFallbackOnDemand  = event.FallbackOnDemand
	TraceBreakerTransition = event.BreakerTransition
	TraceDrain             = event.Drain
	TraceMigrate           = event.Migrate
	TraceCheckpointExport  = event.CheckpointExport
	TraceCheckpointImport  = event.CheckpointImport
	TraceLegComplete       = event.LegComplete
)

// The bid-advisory control plane (see internal/serve): versioned
// quote tables over the windowed ECDF, a three-tier staleness ladder
// (fresh → stale-with-age → refuse; Eq. 14 infeasibility refused in
// every tier), priority-class admission control with deadline-aware
// shedding, and an auditable per-request outcome ledger. cmd/spotbidd
// is the HTTP daemon; the chaos drill in ServeDrillConfig proves the
// degradation behavior deterministically.
type (
	// ServeServer is the quote-serving control plane.
	ServeServer = serve.Server
	// ServeConfig tunes markets, ladder thresholds, grids, admission.
	ServeConfig = serve.Config
	// ServeKey identifies one (region, instance type) market.
	ServeKey = serve.Key
	// ServeTier is a staleness ladder tier.
	ServeTier = serve.Tier
	// ServeQuoteRequest / ServeQuoteResponse are the quote API.
	ServeQuoteRequest  = serve.QuoteRequest
	ServeQuoteResponse = serve.QuoteResponse
	// ServeOutcome classifies how a request exited.
	ServeOutcome = serve.Outcome
	// ServeClass is an admission priority class.
	ServeClass = serve.Class
	// ServeDrillConfig / ServeDrillResult run the serving chaos drill.
	ServeDrillConfig = serve.DrillConfig
	ServeDrillResult = serve.DrillResult
)

// NewServeServer builds a quote-serving control plane; NewServeHandler
// wraps it in the /v1/quote + health HTTP API; ServeDrill runs the
// deterministic degradation drill.
var (
	NewServeServer  = serve.New
	NewServeHandler = serve.NewHandler
	ServeDrill      = serve.Drill
)

// Staleness ladder tiers and admission classes.
const (
	ServeTierFresh  = serve.TierFresh
	ServeTierStale  = serve.TierStale
	ServeTierRefuse = serve.TierRefuse

	ServeClassInteractive = serve.ClassInteractive
	ServeClassStandard    = serve.ClassStandard
	ServeClassBatch       = serve.ClassBatch
)

// The slot-indexed time-series store (see internal/obs/tsdb):
// Gorilla-style compressed series keyed by name + labels, a scraper
// that snapshots the metrics registry every K slots, and a
// multi-window burn-rate SLO engine. Everything is keyed by
// simulation slot, never the wall clock, so two runs of the same seed
// dump byte-identical series. cmd/spotbidtop renders a DB (live,
// replayed, or attached) as a terminal dashboard.
type (
	// TSDB is the in-process time-series store.
	TSDB = tsdb.DB
	// TSDBConfig tunes per-series retention.
	TSDBConfig = tsdb.Config
	// TSDBHandle is a cached series reference for hot append paths.
	TSDBHandle = tsdb.Handle
	// TSDBPoint is one (slot, value) sample; TSDBSeries one decoded
	// series as returned by queries and dumps.
	TSDBPoint  = tsdb.Point
	TSDBSeries = tsdb.SeriesData
	// TSDBLabels / TSDBLabel name a series beyond its metric name.
	TSDBLabels = tsdb.Labels
	TSDBLabel  = tsdb.Label
	// TSDBScraper snapshots a registry + derived sources into a DB.
	TSDBScraper      = tsdb.Scraper
	TSDBScrapeConfig = tsdb.ScrapeConfig
	// SLOSpec declares an objective; SLOBurnRule one multi-window
	// burn-rate condition; SLOSelector names the counter series.
	SLOSpec     = tsdb.SLO
	SLOBurnRule = tsdb.BurnRule
	SLOSelector = tsdb.Selector
	// SLOEngine evaluates SLOs; SLOAlert is one fire/resolve
	// transition.
	SLOEngine = tsdb.Engine
	SLOAlert  = tsdb.Alert
)

// NewTSDB builds a time-series store; NewTSDBScraper a registry
// scraper over it; NewSLOEngine a burn-rate evaluator; TSDBLabelSet
// a label list from key/value pairs.
var (
	NewTSDB        = tsdb.New
	NewTSDBScraper = tsdb.NewScraper
	NewSLOEngine   = tsdb.NewEngine
	TSDBLabelSet   = tsdb.L
)
