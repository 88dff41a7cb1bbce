package obs

// Metric names. One flat namespace, `muse_` prefixed, `_total` suffix
// on counters (Prometheus conventions). DESIGN.md §8 documents what
// each one measures; keep the two lists in sync.
const (
	// chase engine
	MChaseRuns        = "muse_chase_runs_total"        // Chase invocations
	MChaseAssignments = "muse_chase_assignments_total" // satisfying for-clause assignments
	MChaseTuples      = "muse_chase_tuples_total"      // target tuples emitted (pre-dedup)
	MChaseNulls       = "muse_chase_nulls_total"       // labeled nulls minted
	MChaseSetIDs      = "muse_chase_setids_total"      // SetID Skolem terms minted
	GChaseWorkers     = "muse_chase_workers"           // workers of the last chase: always 1 (the chase is serial)

	// real-example retrieval
	MQueryEvals        = "muse_query_evals_total"         // retrievals run
	MQueryRowsScanned  = "muse_query_rows_scanned_total"  // assignment-table rows the scans read
	MQueryRowsReturned = "muse_query_rows_returned_total" // witnesses found, 1 per retrieval
	MQueryRefuted      = "muse_query_refuted_total"       // retrievals refuted on the tableau (no scan)
	MQueryDecided      = "muse_query_decided_total"       // retrievals whose scan proved them empty
	HQueryEvalSeconds  = "muse_query_eval_seconds"        // retrieval latency histogram

	// Never counted since retrieval scans assignment tables; kept
	// because perfbench's layer metrics read them.
	MPlanTierPinnedComposite = "muse_plan_tier_pinned_composite_total"
	MPlanTierBoundComposite  = "muse_plan_tier_bound_composite_total"
	MPlanTierBoundSingle     = "muse_plan_tier_bound_single_total"
	MPlanTierScan            = "muse_plan_tier_scan_total"
	MPlanTierNested          = "muse_plan_tier_nested_total"
	MPlanTierNaive           = "muse_plan_tier_naive_total"
	MIndexBuilds             = "muse_index_builds_total"
	MIndexBuildNanos         = "muse_index_build_nanos_total"
	MIndexProbes             = "muse_index_probes_total"
	MIndexHits               = "muse_index_cache_hits_total"

	// Muse-G (grouping wizard)
	MMuseGSKs               = "muse_museg_sks_designed_total"
	MMuseGQuestions         = "muse_museg_questions_total"
	MMuseGRealExamples      = "muse_museg_real_examples_total"
	MMuseGSyntheticExamples = "muse_museg_synthetic_examples_total"
	MMuseGExampleTuples     = "muse_museg_example_tuples_total"

	// Muse-D (disambiguation wizard)
	MMuseDQuestions         = "muse_mused_questions_total"
	MMuseDAlternatives      = "muse_mused_alternatives_total"
	MMuseDRealExamples      = "muse_mused_real_examples_total"
	MMuseDSyntheticExamples = "muse_mused_synthetic_examples_total"
	MMuseDSourceTuples      = "muse_mused_source_tuples_total"

	// auto-designer (core.AutoDesigner over internal/rank scores)
	MWizardAutoAnswered  = "muse_wizard_auto_answered_total"  // questions answered with the top-ranked choice
	MWizardAutoEscalated = "muse_wizard_auto_escalated_total" // indecisive questions handed to the fallback designer
	MWizardAutoForced    = "muse_wizard_auto_forced_total"    // indecisive questions answered top-ranked for lack of a fallback

	// mapping generation (cmd/musegen)
	MGenMappings  = "muse_gen_mappings_total"
	MGenAmbiguous = "muse_gen_ambiguous_total"

	// wizard-session server (internal/server)
	MSrvRequests         = "muse_server_requests_total"          // HTTP requests served
	MSrvSessionsStarted  = "muse_server_sessions_started_total"  // sessions created
	MSrvSessionsFinished = "muse_server_sessions_finished_total" // dialogs that reached a terminal step
	MSrvSessionsEvicted  = "muse_server_sessions_evicted_total"  // idle sessions dropped (LRU pressure or TTL)
	MSrvSessionsRejected = "muse_server_sessions_rejected_total" // creations refused because the manager was full
	MSrvAnswers          = "muse_server_answers_total"           // answers accepted
	MSrvInvalidAnswers   = "muse_server_invalid_answers_total"   // answers rejected with 400/422
	GSrvSessionsLive     = "muse_server_sessions_live"           // sessions currently held
	HSrvStepSeconds      = "muse_server_step_seconds"            // wall time to compute+render one step
	MSrvErrors           = "muse_server_errors_total"            // requests answered with an {error,code} body
	MSrvSlowSteps        = "muse_server_slow_steps_total"        // steps captured by the flight recorder
	MSrvScenarioSteps    = "muse_server_scenario_steps_total"    // per-scenario step counters (LabeledName)
	MSrvResumes          = "muse_server_resume_total"            // sessions rebuilt from the store on token miss

	// durable session store (internal/server/walstore)
	MSrvWALAppends   = "muse_server_wal_appends_total"    // records appended
	MSrvWALFsyncs    = "muse_server_wal_fsyncs_total"     // fsyncs issued for appended records
	MSrvWALBytes     = "muse_server_wal_bytes_total"      // bytes appended
	MSrvWALRecovered = "muse_server_wal_recovered_total"  // token logs recovered at boot
	MSrvWALTornTails = "muse_server_wal_torn_tails_total" // torn final records truncated at boot
	MSrvWALCorrupt   = "muse_server_wal_corrupt_total"    // logs refused at boot (mid-file corruption)
)

// SrvStepSecondsBounds buckets the server's per-step latency
// histogram: finer than DefSecondsBounds in the 100µs–100ms band the
// wizard steps live in, so the interpolated p50/p95/p99 estimates stay
// tight where the mass is.
var SrvStepSecondsBounds = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Span names. Dotted `component.operation` scheme; attributes are
// lower_snake_case.
const (
	SpanChase        = "chase"              // one Chase call: mappings, workers
	SpanChaseMapping = "chase.mapping"      // one mapping's chase: mapping, assignments, tuples, nulls
	SpanQueryEval    = "query.eval"         // one retrieval: matches, scanned, refuted, decided, explain
	SpanMuseGSK      = "museg.design_sk"    // one grouping function: mapping, sk, questions
	SpanMuseGProbe   = "museg.probe"        // one probe question's compute: probe, real
	SpanMuseGTable   = "museg.table"        // one assignment-table build: mapping, rows
	SpanMuseD        = "mused.disambiguate" // one Muse-D question: mapping, alternatives, real
	SpanGen          = "gen.generate"       // one mapping-generation run
	SpanSrvRequest   = "server.request"     // one HTTP request: route, status, request id
	SpanCoreStep     = "core.step"          // one Stepper wait for the next question/result
)
