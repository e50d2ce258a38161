"""Tests of the benchmark's correctness checks: each must pass a good output
and reject a deliberately damaged one.

    python3 perfbench/test_checks.py
"""

import copy
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402


def summary(count, value, aborted=0, skipped=0, name="m"):
    return {"name": name, "mode": "summary", "count": count, "aborted": aborted,
            "skipped": skipped, "min": value, "p25": value, "median": value, "p75": value,
            "max": value, "mean": value, "stddev": 0}


def fig04b_export():
    points = []
    for rtt in (2, 9, 25):
        for delta in (1, 9):
            iack = 3.0 * rtt + 4.9
            for behavior, median in (("WFC", iack + 3.0 * delta + 5.748), ("IACK", iack)):
                points.append({"point": len(points), "behavior": behavior, "rtt_ms": rtt,
                               "delta_ms": delta, "metrics": [summary(9, median)]})
    return {"sweep": "fig04b", "total_runs": 9 * len(points), "executed_runs": 9 * len(points),
            "points": points}


def table1_fixture():
    export = {"points": []}
    cells = []
    for day in ("0", "1"):
        for cdn, count, iacks in (("Cloudflare", 40, 39), ("Akamai", 10, 0)):
            extras = {"day": day, "vantage": "Hamburg, DE", "cdn": cdn}
            metric = summary(count, 1 if iacks else 0, skipped=100 - count,
                             name="iack_observed")
            metric["mean"] = iacks / count
            metric["min"] = 0
            export["points"].append({"point": len(export["points"]), "extras": extras,
                                     "metrics": [metric]})
            cells.append({**extras, "count_quic": count, "samples": count, "iack": iacks})
    return export, {"cells": cells}


def cdn_fixture():
    hits = [180, 100, 40, 3, 0, 700]
    totals = [180, 180, 180, 180, 180, 10800]
    export = {"points": []}
    for d, domain in enumerate(checks.CDN_DOMAINS):
        extras = {"cache_capacity": "65536", "cache_ttl_s": "300s",
                  "frontends_per_cluster": "4096", "probe_per_min": "1/min", "domain": domain}
        share = 100.0 * hits[d] / totals[d]
        export["points"].append({"point": d, "extras": extras,
                                 "metrics": [summary(1, share, name="coalesced_share_pct")]})
    return export, {"keys": [{"key": [65536, 300, 4096, 1], "hits": hits, "totals": totals}]}


class AccountingTest(unittest.TestCase):
    def setUp(self):
        self.scenario = {"sweep": "fig04b", "repetitions": 9}
        self.export = fig04b_export()

    def test_passes_complete_sweep(self):
        self.assertEqual(checks.check_accounting(self.scenario, self.export, 12), [])

    def test_rejects_dropped_point(self):
        damaged = copy.deepcopy(self.export)
        del damaged["points"][5]
        self.assertTrue(checks.check_accounting(self.scenario, damaged, 12))

    def test_rejects_lost_repetition(self):
        damaged = copy.deepcopy(self.export)
        damaged["points"][3]["metrics"][0]["count"] = 8
        self.assertTrue(checks.check_accounting(self.scenario, damaged, 12))

    def test_rejects_quantiles_out_of_order(self):
        damaged = copy.deepcopy(self.export)
        damaged["points"][0]["metrics"][0]["p25"] += 1.0
        self.assertTrue(checks.check_accounting(self.scenario, damaged, 12))


class FirstPtoGapTest(unittest.TestCase):
    def test_passes_constant_gap(self):
        self.assertEqual(checks.check_first_pto_gap(fig04b_export()), [])

    def test_rejects_shifted_median(self):
        damaged = fig04b_export()
        damaged["points"][6]["metrics"][0]["median"] += 0.25
        self.assertTrue(checks.check_first_pto_gap(damaged))

    def test_rejects_dropped_point(self):
        damaged = fig04b_export()
        del damaged["points"][1]
        self.assertTrue(checks.check_first_pto_gap(damaged))


class Table1Test(unittest.TestCase):
    def setUp(self):
        self.export, self.reference = table1_fixture()

    def test_passes_matching_counts(self):
        self.assertEqual(checks.check_table1(self.export, self.reference), [])
        self.assertEqual(checks.zero_one_quantile_rows(self.export), [])

    def test_rejects_shifted_quantile(self):
        damaged = copy.deepcopy(self.export)
        damaged["points"][0]["metrics"][0]["p75"] = 0.99951
        self.assertEqual(checks.zero_one_quantile_rows(damaged), [0])

    def test_rejects_wrong_sample_count(self):
        damaged = copy.deepcopy(self.export)
        damaged["points"][2]["metrics"][0]["count"] += 1
        self.assertTrue(checks.check_table1(damaged, self.reference))

    def test_rejects_wrong_instant_ack_count(self):
        damaged = copy.deepcopy(self.export)
        metric = damaged["points"][0]["metrics"][0]
        metric["mean"] = 38 / metric["count"]
        self.assertTrue(checks.check_table1(damaged, self.reference))

    def test_rejects_dropped_point(self):
        damaged = copy.deepcopy(self.export)
        del damaged["points"][3]
        self.assertTrue(checks.check_table1(damaged, self.reference))


class CdnCacheTest(unittest.TestCase):
    def setUp(self):
        self.export, self.reference = cdn_fixture()

    def test_passes_reference_hits(self):
        self.assertEqual(checks.check_cdn_cache(self.export, self.reference), [])

    def test_rejects_wrong_hit_count(self):
        damaged = copy.deepcopy(self.export)
        damaged["points"][2]["metrics"][0]["mean"] = 100.0 * 41 / 180
        self.assertTrue(checks.check_cdn_cache(damaged, self.reference))

    def test_rejects_share_out_of_range(self):
        damaged = copy.deepcopy(self.export)
        damaged["points"][4]["metrics"][0]["mean"] = -0.5
        self.assertTrue(checks.check_cdn_cache(damaged, self.reference))

    def test_rejects_rising_base_shares(self):
        export, reference = copy.deepcopy(self.export), copy.deepcopy(self.reference)
        reference["keys"][0]["hits"][3] = 170
        export["points"][3]["metrics"][0]["mean"] = 100.0 * 170 / 180
        self.assertTrue(checks.check_cdn_cache(export, reference))


class CollectedExportsTest(unittest.TestCase):
    def test_flipped_byte_and_coverage(self):
        with tempfile.TemporaryDirectory() as root:
            collected, single = os.path.join(root, "collected"), os.path.join(root, "single")
            for directory in (collected, single):
                os.makedirs(directory)
                for name in ("fig05_sweep.csv", "fig05_sweep.json"):
                    with open(os.path.join(directory, name), "wb") as handle:
                        handle.write(b'{"sweep": "fig05", "points": [1, 2, 3]}\n')
            self.assertEqual(checks.check_same_exports(checks.tree_digest(collected),
                                                       checks.tree_digest(single)), [])
            path = os.path.join(collected, "fig05_sweep.json")
            with open(path, "rb") as handle:
                data = bytearray(handle.read())
            data[17] ^= 0x01
            with open(path, "wb") as handle:
                handle.write(data)
            self.assertTrue(checks.check_same_exports(checks.tree_digest(collected),
                                                      checks.tree_digest(single)))
            os.remove(os.path.join(collected, "fig05_sweep.csv"))
            self.assertTrue(checks.check_same_exports(checks.tree_digest(collected),
                                                      checks.tree_digest(single)))

    def test_collect_report(self):
        good = "collect 'q': 612/612 units with results — exports written to 'out'\n"
        self.assertEqual(checks.check_collect_report(good, 0), [])
        self.assertTrue(checks.check_collect_report(good.replace("612/612", "611/612"), 1))
        self.assertTrue(checks.check_collect_report(
            "collect 'q': 612/612 units with results — INCOMPLETE\n", 1))
        self.assertTrue(checks.check_collect_report("", 1))


if __name__ == "__main__":
    unittest.main()
