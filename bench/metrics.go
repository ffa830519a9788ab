package main

import "fmt"

// The metric catalogue: every name the benchmark reports, with its unit.
// BENCHMARK.json lists the same names (a test holds the two together), and
// a run fails rather than print a result that is missing one of them.

type metricDef struct{ name, unit string }

// endToEnd are reported with tracing off; BENCHMARK.json bounds each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"steady_ops_s", "ops/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p95_ms", "ms"},
	{"batch_qps", "selections/s"},
	{"rss_mb", "MiB"},
}

// perLayer are reported by the traced pass; they carry no bound.
var perLayer = []metricDef{
	{"owner.query_self_us", "us"},
	{"owner.insert_self_us", "us"},
	{"owner.rows_per_result", "ratio"},
	{"owner.fake_discarded_per_read", "count"},
	{"owner.bin_discarded_per_read", "count"},
	{"core.retrieve_ns", "ns"},
	{"core.createbins_ms", "ms"},
	{"core.metadata_kb", "KiB"},
	{"crypto.gcm_encrypt_ns", "ns"},
	{"crypto.gcm_decrypt_ns", "ns"},
	{"crypto.det_encrypt_ns", "ns"},
	{"crypto.prf_ns", "ns"},
	{"crypto.arx_token_ns", "ns"},
	{"crypto.shamir_split_ns", "ns"},
	{"crypto.shamir_reconstruct_ns", "ns"},
	{"crypto.dpf_gen_us", "us"},
	{"crypto.dpf_evalall_us", "us"},
	{"technique.search_self_us", "us"},
	{"technique.encops_per_read", "count"},
	{"technique.rounds_per_read", "count"},
	{"technique.rows_scanned_per_read", "count"},
	{"technique.cache.hit_ratio", "ratio"},
	{"technique.cache.bytes", "B"},
	{"technique.cache.bytes_saved_per_read", "B"},
	{"technique.noind.search_us", "us"},
	{"technique.noind.batch_us_per_query", "us"},
	{"technique.detindex.search_us", "us"},
	{"technique.detindex.batch_us_per_query", "us"},
	{"technique.arx.search_us", "us"},
	{"technique.arx.batch_us_per_query", "us"},
	{"technique.shamir.search_us", "us"},
	{"technique.shamir.batch_us_per_query", "us"},
	{"technique.simopaque.search_us", "us"},
	{"technique.simopaque.batch_us_per_query", "us"},
	{"technique.simjana.search_us", "us"},
	{"technique.simjana.batch_us_per_query", "us"},
	{"technique.dpfpir.search_us", "us"},
	{"technique.dpfpir.batch_us_per_query", "us"},
	{"eta.noind.measured", "ratio"},
	{"eta.noind.predicted", "ratio"},
	{"eta.detindex.measured", "ratio"},
	{"eta.detindex.predicted", "ratio"},
	{"eta.arx.measured", "ratio"},
	{"eta.arx.predicted", "ratio"},
	{"eta.shamir.measured", "ratio"},
	{"eta.shamir.predicted", "ratio"},
	{"eta.simopaque.measured", "ratio"},
	{"eta.simopaque.predicted", "ratio"},
	{"eta.simjana.measured", "ratio"},
	{"eta.simjana.predicted", "ratio"},
	{"eta.dpfpir.measured", "ratio"},
	{"eta.dpfpir.predicted", "ratio"},
	{"relation.encode_tuple_ns", "ns"},
	{"relation.decode_tuple_ns", "ns"},
	{"storage.plain.search_us", "us"},
	{"storage.plain.insert_ns", "ns"},
	{"storage.enc.attrcolumn_us", "us"},
	{"storage.enc.fetch_us", "us"},
	{"storage.enc.lookup_ns", "ns"},
	{"storage.enc.add_ns", "ns"},
	{"wire.ping_us", "us"},
	{"wire.ping_pipe_us", "us"},
	{"wire.version_us", "us"},
	{"wire.search_us", "us"},
	{"wire.column_us", "us"},
	{"wire.fetch_us", "us"},
	{"wire.lookup_us", "us"},
	{"wire.insert_us", "us"},
	{"wire.flush_us", "us"},
	{"wire.transport_share", "ratio"},
	{"wire.bytes_per_read", "B"},
	{"wire.bytes_per_write", "B"},
	{"wire.server_ops_per_read", "count"},
	{"wire.cond_hit_ratio", "ratio"},
	{"ring.read_overhead_us", "us"},
	{"ring.write_fanout_us", "us"},
	{"ring.dial_ms", "ms"},
	{"setup.boot_s", "s"},
	{"setup.outsource_s", "s"},
	{"setup.resume_s", "s"},
	{"setup.warm_s", "s"},
	{"paced.read_p50_ms", "ms"},
	{"paced.read_p99_ms", "ms"},
	{"paced.achieved_ratio", "ratio"},
	{"paced.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.unexplained_pct", "%"},
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// complete checks that the result holds exactly the metrics of one pass.
func (r *runResult) complete(want []metricDef) error {
	for _, d := range want {
		if _, ok := r.metrics[d.name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("%d metrics measured, the catalogue lists %d", len(r.metrics), len(want))
	}
	return nil
}
