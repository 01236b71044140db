"""Self-tests for the benchmark harness.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import harness as H  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_known_samples(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(H.percentile(values, 50), 50)
        self.assertEqual(H.percentile(values, 90), 90)
        self.assertEqual(H.percentile(values, 99), 99)
        self.assertEqual(H.percentile(values, 100), 100)
        self.assertEqual(H.percentile([7.5], 99), 7.5)
        self.assertEqual(H.percentile([1, 2, 3, 4], 50), 2)
        self.assertEqual(H.percentile([1, 2, 3, 4], 51), 3)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(H.tail_percentile(values), 990)  # p99 reachable
        self.assertEqual(H.tail_percentile(values[:100]), 90)  # p90 at n=100
        self.assertEqual(H.tail_percentile(values[:200]), 190)  # p95
        self.assertEqual(H.tail_percentile([1, 2, 3]), 2)  # median floor

    def test_rejects_empty_and_bad_q(self):
        with self.assertRaises(ValueError):
            H.percentile([], 50)
        with self.assertRaises(ValueError):
            H.percentile([1], 0)

    def test_median(self):
        self.assertEqual(H.median([3, 1, 2]), 2)
        self.assertEqual(H.median([4, 1, 3, 2]), 2.5)

    def test_histogram_quantile(self):
        buckets = [(10.0, 50), (20.0, 90), (40.0, 99), (80.0, 100),
                   (float("inf"), 100)]
        self.assertEqual(H.histogram_quantile(buckets, 0.5), 10.0)
        self.assertEqual(H.histogram_quantile(buckets, 0.9), 20.0)
        self.assertEqual(H.histogram_quantile(buckets, 0.99), 40.0)
        self.assertEqual(H.histogram_quantile(buckets, 1.0), 80.0)

    def test_openmetrics_parse(self):
        text = ('# TYPE dxrec_serve_request_micros histogram\n'
                'dxrec_serve_request_micros_bucket{le="105.0"} 1\n'
                'dxrec_serve_request_micros_bucket{le="+Inf"} 2\n'
                'dxrec_serve_request_micros_count 2\n')
        hists = H.parse_openmetrics_histograms(text)
        self.assertEqual(hists["dxrec_serve_request_micros"],
                         [(105.0, 1), (float("inf"), 2)])


def steady_records(n, gap_us=1000, service_us=300, late_us=50):
    return [{"due_us": i * gap_us, "sent_us": i * gap_us + late_us,
             "done_us": i * gap_us + service_us, "outcome": "ok"}
            for i in range(n)]


class OpenLoopAccountingTest(unittest.TestCase):
    def test_steady_step_passes(self):
        result = H.step_result(steady_records(400), limit_ms=1.0,
                               slack_requests=2)
        self.assertTrue(result["passed"])
        self.assertAlmostEqual(result["p99_ms"], 0.3)
        self.assertAlmostEqual(result["late_ms_p99"], 0.05)
        self.assertLessEqual(abs(result["backlog_growth"]), 1)  # sampling
        self.assertEqual(result["failed"], 0)

    def test_latency_is_timed_from_due_not_sent(self):
        records = steady_records(100, late_us=250)
        result = H.step_result(records, limit_ms=1.0, slack_requests=2)
        self.assertAlmostEqual(result["p50_ms"], 0.3)
        self.assertAlmostEqual(result["late_ms_p99"], 0.25)

    def test_growing_backlog_fails(self):
        # Service falls behind: request i completes 1.5 gaps after the
        # previous one, so the queue grows linearly.
        records = [{"due_us": i * 1000, "sent_us": i * 1000,
                    "done_us": i * 1500 + 300, "outcome": "ok"}
                   for i in range(400)]
        result = H.step_result(records, limit_ms=1e9, slack_requests=2)
        self.assertGreater(result["backlog_growth"], 20)
        self.assertFalse(result["passed"])

    def test_unanswered_requests_stay_in_backlog(self):
        records = steady_records(400)
        for r in records[200:]:
            r["done_us"] = None
            r["outcome"] = "failed"
        self.assertEqual(H.backlog_series(records, points=4)[-1], 200)
        result = H.step_result(records, limit_ms=1e9, slack_requests=2)
        self.assertEqual(result["failed"], 200)
        self.assertFalse(result["passed"])

    def test_one_shed_request_fails_the_step(self):
        records = steady_records(400)
        records[10]["outcome"] = "shed"
        self.assertFalse(H.step_result(records, 1.0, 2)["passed"])

    def test_p99_over_limit_fails_the_step(self):
        self.assertFalse(H.step_result(steady_records(400), 0.2, 2)["passed"])

    def test_max_passing_rate_stops_at_first_failure(self):
        self.assertEqual(H.max_passing_rate([(100, True), (200, True),
                                             (400, False), (800, True)]), 200)
        self.assertEqual(H.max_passing_rate([(100, False)]), 0)

    def test_poisson_schedule_is_seeded(self):
        a = H.poisson_schedule(random.Random(3), 1000, 1.0)
        b = H.poisson_schedule(random.Random(3), 1000, 1.0)
        self.assertEqual(a, b)
        self.assertTrue(800 < len(a) < 1200)
        self.assertEqual(a, sorted(a))


class GoldenGateTest(unittest.TestCase):
    def setUp(self):
        self.rename = H.Renamer(random.Random(7))

    def test_blowup_counts_from_def9(self):
        self.assertEqual(H.blowup_recoveries(2, 2), (16, 7))  # the paper's 7
        self.assertEqual(H.blowup_recoveries(2, 6), (2304, 494))

    def test_blowup_gate(self):
        golden = H.engine_golden("recover-blowup", {"p": 2, "q": 2})
        good = {"recoveries": 7, "covers": 1, "candidates": 16}
        self.assertEqual(H.check_engine_output("recover-blowup", good, golden,
                                               self.rename), [])
        bad = dict(good, recoveries=6)
        self.assertTrue(H.check_engine_output("recover-blowup", bad, golden,
                                              self.rename))

    def test_triangle_gate_fails_on_corrupted_answer(self):
        golden = H.engine_golden("certain-triangle", {"s": 1})
        good = {"exact": ["(%s)" % self.rename("a0")]}
        self.assertEqual(H.check_engine_output("certain-triangle", good,
                                               golden, self.rename), [])
        for bad in ({"exact": ["(a0)"]},  # not renamed
                    {"exact": []},
                    {"exact": good["exact"] + ["(%s)" % self.rename("c0")]},
                    {"error": "ResourceExhausted"}):
            self.assertTrue(H.check_engine_output("certain-triangle", bad,
                                                  golden, self.rename), bad)

    def test_employee_sound_answers_must_be_certain(self):
        params = {"employees": 2, "departments": 2, "benefits": 2}
        golden = H.engine_golden("employee-large", params)
        exact = H.rename_answers(golden["exact"], self.rename)
        good = {"exact": exact, "sound_ucq": exact, "sound_cq": exact[:1],
                "analyze": golden["analyze"], "subuniversal_atoms": 8}
        self.assertEqual(H.check_engine_output("employee-large", good, golden,
                                               self.rename), [])
        unsound = dict(good, sound_cq=exact + ["(%s)" % self.rename("bnf1_0")])
        self.assertTrue(H.check_engine_output("employee-large", unsound,
                                              golden, self.rename))

    def test_serve_gate(self):
        want = {"answers": ["(x)"], "recoveries": ["{\n  R(a, b)\n}\n"],
                "target_atoms": 24}
        ok = {"ok": True, "rung": "exact", "answers": ["(x)"]}
        self.assertEqual(H.check_serve_response("certain", ok, want), "ok")
        corrupted = dict(ok, answers=["(y)"])
        self.assertEqual(H.check_serve_response("certain", corrupted, want),
                         "wrong")
        sound = {"ok": True, "rung": "sound_ucq", "answers": []}
        self.assertEqual(H.check_serve_response("certain", sound, want),
                         "degraded")
        shed = {"ok": False, "error": {"kind": "overloaded"}}
        self.assertEqual(H.check_serve_response("certain", shed, want), "shed")
        self.assertEqual(H.check_serve_response("certain", None, want),
                         "failed")

    def test_serve_recover_gate_compares_content(self):
        one = "{\n  R(a, b)\n}\n"
        want = {"answers": [], "recoveries": [one], "target_atoms": 2}
        rec = {"ok": True, "rung": "exact", "recoveries": [one]}
        self.assertEqual(H.check_serve_response("recover", rec, want), "ok")
        # Right count, wrong content.
        corrupted = dict(rec, recoveries=["{\n  R(a, c)\n}\n"])
        self.assertEqual(H.check_serve_response("recover", corrupted, want),
                         "wrong")
        twice = dict(rec, recoveries=[one, one])
        self.assertEqual(H.check_serve_response("recover", twice, want),
                         "wrong")
        partial = {"ok": True, "rung": "partial", "recoveries": []}
        self.assertEqual(H.check_serve_response("recover", partial, want),
                         "degraded")
        self.assertEqual(H.check_serve_response("recover",
                                                dict(corrupted, rung="partial"),
                                                want), "wrong")


class InputTest(unittest.TestCase):
    def test_seed_renames_and_shuffles_deterministically(self):
        _, atoms = H.triangle(1, 4)

        def render(seed):
            rng = random.Random(seed)
            rename = H.Renamer(rng)
            return (H.render_instance(atoms, rename, rng),
                    H.render_query("Q(x) :- Bnf('dept0', x)", rename))

        self.assertEqual(render(1), render(1))
        self.assertNotEqual(render(1), render(2))
        text, query = render(1)
        self.assertNotIn("a0", text)
        self.assertNotIn("dept0", query)


class SpanTest(unittest.TestCase):
    def test_self_time_and_unattributed(self):
        spans = [
            {"name": "op", "start_us": 0, "end_us": 10000, "parent": -1},
            {"name": "engine.recover", "start_us": 100, "end_us": 8100,
             "parent": 0},
            {"name": "certain.eval", "start_us": 8200, "end_us": 9200,
             "parent": 0},
        ]
        self.assertEqual(H.self_times_ms(spans), [1.0, 8.0, 1.0])
        stats = {"covers": 4, "hom_enum_ms": 0.5, "cover_enum_ms": 0.5,
                 "subsumption_ms": 0.0, "merge_ms": 3.0,
                 "reverse_chase_ms": 2.0, "forward_chase_ms": 2.0,
                 "g_hom_ms": 2.0, "verify_ms": 2.0}
        # Per-cover phases enter divided by the pool width (2).
        self.assertAlmostEqual(H.recover_unattributed_ms(8.0, stats, 2), 0.0)
        self.assertAlmostEqual(H.recover_unattributed_ms(8.0, stats, 1), -4.0)


if __name__ == "__main__":
    unittest.main()
