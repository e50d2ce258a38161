"""Correctness checks of the end-to-end benchmark.

Every check takes parsed program outputs (sweep exports, reference
computations made apart from the program) and returns a list of problems;
an empty list means the output passed. The functions are pure so that
test_checks.py can hand them deliberately damaged outputs.
"""

import hashlib
import math
import os

# Quantile fields of a summary series in the sweep JSON exports.
QUANTILES = ("min", "p25", "median", "p75", "max")

# The caching study's domain axis, in stream order (most to least popular
# organic load first).
CDN_DOMAINS = (
    "discord.example",
    "cloudflare.example",
    "tinyurl.example",
    "docker.example",
    "own-domain (1/min probes)",
    "own-domain (60/min probes)",
)
CDN_BASE_TUPLE = ("65536", "300s", "4096", "1/min")


def check_accounting(scenario, export, expected_points):
    """Every point of a sweep ran all its repetitions exactly once.

    count + aborted + skipped equals the repetitions of every point and
    metric, the point ids are 0..n-1 with n the enumerated grid size, and
    executed_runs equals points x repetitions.
    """
    name = scenario["sweep"]
    reps = int(scenario["repetitions"])
    points = export.get("points", [])
    problems = []
    if len(points) != expected_points:
        problems.append(f"{name}: {len(points)} points exported, grid has {expected_points}")
    ids = [p.get("point") for p in points]
    if ids != list(range(len(points))):
        problems.append(f"{name}: point ids are not 0..{len(points) - 1}")
    for point in points:
        for metric in point.get("metrics", []):
            total = metric["count"] + metric["aborted"] + metric["skipped"]
            if total != reps:
                problems.append(
                    f"{name} point {point.get('point')} {metric['name']}: "
                    f"count+aborted+skipped = {total}, repetitions {reps}")
            if metric.get("mode") == "trace" and len(metric.get("trace", [])) != metric["count"]:
                problems.append(f"{name} point {point.get('point')} {metric['name']}: trace "
                                f"holds {len(metric.get('trace', []))} of {metric['count']} values")
            if metric["count"] > 0:
                values = [metric[q] for q in QUANTILES]
                if any(not math.isfinite(v) for v in values) or values != sorted(values):
                    problems.append(
                        f"{name} point {point.get('point')} {metric['name']}: "
                        f"quantiles out of order {values}")
    if export.get("executed_runs") != expected_points * reps:
        problems.append(f"{name}: executed_runs {export.get('executed_runs')}, "
                        f"expected {expected_points * reps}")
    return problems


def check_first_pto_gap(export, tolerance_ms=1e-6):
    """fig04b: median first PTO of WFC minus IACK is 3*delta_t plus a constant.

    RFC 9002 sets the first PTO to 3 x the first RTT sample; waiting for the
    certificate adds delta_t to the server's first response and so 3*delta_t
    to the PTO. The constant may not depend on RTT or delta_t.
    """
    medians = {}
    for point in export.get("points", []):
        metric = point["metrics"][0]
        medians[(point["behavior"], point["rtt_ms"], point["delta_ms"])] = metric["median"]
    gaps = []
    problems = []
    for (behavior, rtt, delta), wfc in sorted(medians.items()):
        if behavior != "WFC":
            continue
        iack = medians.get(("IACK", rtt, delta))
        if iack is None:
            problems.append(f"fig04b: rtt {rtt} delta {delta} has no IACK point")
            continue
        gaps.append(((rtt, delta), wfc - iack - 3.0 * delta))
    if not gaps:
        return problems + ["fig04b: no WFC/IACK point pairs"]
    constant = gaps[0][1]
    for (rtt, delta), gap in gaps:
        if abs(gap - constant) > tolerance_ms:
            problems.append(f"fig04b: rtt {rtt} ms delta {delta} ms: WFC-IACK-3*delta = "
                            f"{gap:.9f} ms, other points {constant:.9f} ms")
    return problems


def zero_one_quantile_rows(export):
    """Points of a 0/1 metric whose quantiles are not exactly 0 or 1."""
    rows = []
    for point in export.get("points", []):
        metric = point["metrics"][0]
        if metric["count"] > 0 and any(metric[q] not in (0, 1) for q in QUANTILES):
            rows.append(point["point"])
    return rows


def _cell(point):
    extras = point.get("extras", {})
    return (extras.get("day"), extras.get("vantage"), extras.get("cdn"))


def check_table1(export, reference):
    """Table 1 against a population and prober run apart from the sweep.

    Each point's sample count equals TrancoPopulation::CountQuic(cdn) and
    the direct probe count; mean x count equals the directly counted
    instant ACKs.
    """
    cells = {(c["day"], c["vantage"], c["cdn"]): c for c in reference["cells"]}
    problems = []
    seen = set()
    for point in export.get("points", []):
        cell = _cell(point)
        seen.add(cell)
        ref = cells.get(cell)
        metric = point["metrics"][0]
        if ref is None:
            problems.append(f"table1: point {point['point']} {cell} has no reference cell")
            continue
        if not metric["count"] == ref["count_quic"] == ref["samples"]:
            problems.append(f"table1 {cell}: {metric['count']} samples, CountQuic "
                            f"{ref['count_quic']}, direct probes {ref['samples']}")
        observed = metric["mean"] * metric["count"]
        if abs(observed - ref["iack"]) > 1e-6 * max(1, ref["iack"]):
            problems.append(f"table1 {cell}: mean x count = {observed:.6f}, "
                            f"direct instant-ACK count {ref['iack']}")
    missing = set(cells) - seen
    if missing:
        problems.append(f"table1: {len(missing)} reference cells have no point, "
                        f"e.g. {sorted(missing)[0]}")
    return problems


def cdn_key(point):
    extras = point["extras"]
    return (extras["cache_capacity"], extras["cache_ttl_s"], extras["frontends_per_cluster"],
            extras["probe_per_min"])


def check_cdn_cache(export, reference):
    """caching_study against a reference LRU+TTL cache on the same stream.

    Every share lies in [0, 100]; every point of a key the reference
    computed has exactly the reference's probe hit count; at the base tuple
    shares never rise from discord to docker.
    """
    refs = {}
    for entry in reference["keys"]:
        capacity, ttl, frontends, probes = entry["key"]
        refs[(str(capacity), f"{ttl}s", str(frontends), f"{probes}/min")] = entry
    problems = []
    base = {}
    for point in export.get("points", []):
        share = point["metrics"][0]["mean"]
        key = cdn_key(point)
        domain = point["extras"]["domain"]
        if not 0.0 <= share <= 100.0:
            problems.append(f"caching_study {key} {domain}: share {share} outside [0, 100]")
        if key == CDN_BASE_TUPLE:
            base[domain] = share
        ref = refs.get(key)
        if ref is None:
            continue
        d = CDN_DOMAINS.index(domain)
        hits = share * ref["totals"][d] / 100.0
        if abs(hits - ref["hits"][d]) > 1e-6:
            problems.append(f"caching_study {key} {domain}: {hits:.6f} probe hits, "
                            f"reference cache {ref['hits'][d]}")
    order = [base.get(domain) for domain in CDN_DOMAINS[:4]]
    if None in order:
        problems.append("caching_study: the base tuple misses a discord..docker point")
    elif any(later > earlier for earlier, later in zip(order, order[1:])):
        problems.append(f"caching_study: base-tuple shares rise between discord and docker "
                        f"{order}")
    return problems


def tree_digest(directory):
    """{relative path: sha256} of every file under `directory`."""
    digests = {}
    for root, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                digests[os.path.relpath(path, directory)] = hashlib.sha256(
                    handle.read()).hexdigest()
    return digests


def check_same_exports(collected, reference, label="collect"):
    """Two export directories hold the same files with the same bytes."""
    problems = []
    for name in sorted(set(collected) | set(reference)):
        if name not in collected:
            problems.append(f"{label}: {name} missing")
        elif name not in reference:
            problems.append(f"{label}: unexpected export {name}")
        elif collected[name] != reference[name]:
            problems.append(f"{label}: {name} differs from the single-process run")
    return problems


def check_collect_report(stdout_text, returncode):
    """`collect` reported every unit with results and wrote the exports."""
    for line in stdout_text.splitlines():
        if line.startswith("collect ") and "units with results" in line:
            counts = line.split(": ", 1)[1].split(" ", 1)[0]
            have, total = (int(x) for x in counts.split("/"))
            if returncode == 0 and have == total and "INCOMPLETE" not in line:
                return []
            return [f"collect: incomplete coverage ({line.strip()})"]
    return [f"collect: no coverage report (exit {returncode})"]
