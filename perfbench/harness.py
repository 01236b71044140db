"""Pure helpers for the dxrec benchmark: input generation, percentile math,
open-loop accounting, output gates and span arithmetic.

Nothing here starts a process or reads the clock, so perfbench/tests can
check it on known samples.
"""

import bisect
import itertools
import json
import math
import re


# --------------------------------------------------------------------------
# Percentiles

def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it. q is in (0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile(values, q=99, beyond=10):
    """The q-th percentile, or, when fewer than `beyond` samples would lie
    past it, the highest percentile that has `beyond` samples past it (so
    a 100-sample p99 reads as p90 instead of as the maximum)."""
    n = len(values)
    reachable = 100.0 * (1.0 - beyond / n) if n > beyond else 50.0
    return percentile(values, max(50.0, min(q, reachable)))


def median(values):
    """The middle sample (mean of the two middle ones for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def histogram_quantile(buckets, q):
    """Quantile from cumulative (upper_bound, count) buckets, as exported
    by OpenMetrics: the upper bound of the first bucket whose cumulative
    count reaches q of the total."""
    if not buckets:
        raise ValueError("empty histogram")
    ordered = sorted(buckets)
    total = ordered[-1][1]
    if total == 0:
        raise ValueError("empty histogram")
    need = q * total
    for bound, cumulative in ordered:
        if cumulative >= need:
            return bound
    return ordered[-1][0]


def parse_openmetrics_histograms(text):
    """{family: [(le, cumulative_count), ...]} for every histogram in an
    OpenMetrics exposition; the +Inf bucket becomes float('inf')."""
    out = {}
    pattern = re.compile(r'^(\w+)_bucket\{le="([^"]+)"\} (\d+)$')
    for line in text.splitlines():
        m = pattern.match(line.strip())
        if not m:
            continue
        le = float("inf") if m.group(2) == "+Inf" else float(m.group(2))
        out.setdefault(m.group(1), []).append((le, int(m.group(3))))
    return out


# --------------------------------------------------------------------------
# Inputs. The seed renames every constant and shuffles atom order; the
# program only ever sees the rendered text.

class Renamer:
    """Maps canonical constant names to seed-drawn fresh ones, 1:1."""

    def __init__(self, rng):
        self._rng = rng
        self._map = {}
        self._used = set()

    def __call__(self, name):
        if name not in self._map:
            while True:
                fresh = "k%08x" % self._rng.getrandbits(32)
                if fresh not in self._used:
                    break
            self._used.add(fresh)
            self._map[name] = fresh
        return self._map[name]


def render_instance(atoms, rename, rng):
    """'{R(a, b), ...}' with constants renamed and atoms shuffled."""
    rendered = ["%s(%s)" % (rel, ", ".join(rename(a) for a in args))
                for rel, args in atoms]
    rng.shuffle(rendered)
    return "{" + ", ".join(rendered) + "}"


def render_query(text, rename):
    """Renames every quoted constant 'c' of a query."""
    return re.sub(r"'([^']*)'", lambda m: "'%s'" % rename(m.group(1)), text)


def rename_answers(answers, rename):
    """Canonical answer tuples '(a, b)' mapped through the renaming."""
    out = []
    for tup in answers:
        inner = tup.strip()[1:-1]
        parts = [p.strip() for p in inner.split(",")] if inner else []
        out.append("(" + ", ".join(rename(p) for p in parts) + ")")
    return sorted(out)


# The scenarios of src/datagen/scenarios.h, written out as text so the
# generator, not the library, owns the inputs.

def blowup(p, q):
    sigma = "Rb(x, y) -> Sb(x); Rb(u, v) -> Tb(v)"
    atoms = [("Sb", ["a%d" % i]) for i in range(p)]
    atoms += [("Tb", ["c%d" % j]) for j in range(q)]
    return sigma, atoms


def triangle(s, t):
    sigma = ("Rt(x, x, y) -> exists z: St(x, z); Rt(u, v, w) -> Tt(w); "
             "Dt(k, p) -> Tt(p)")
    atoms = [("St", ["a%d" % i, "b%d" % i]) for i in range(s)]
    atoms += [("Tt", ["c%d" % j]) for j in range(t)]
    return sigma, atoms


def employee(employees, departments, benefits):
    sigma = "Emp(n, d), Bnf(d, b) -> EmpDept(n, d), EmpBnf(n, b)"
    atoms = []
    for d in range(departments):
        for e in range(employees):
            name = "emp%d_%d" % (d, e)
            atoms.append(("EmpDept", [name, "dept%d" % d]))
            for b in range(benefits):
                atoms.append(("EmpBnf", [name, "bnf%d_%d" % (d, b)]))
    return sigma, atoms


def projection(n):
    sigma = "Rp(x, y) -> Sp(x), Pp(y)"
    atoms = [("Sp", ["a"])] + [("Pp", ["b%d" % i]) for i in range(1, n + 1)]
    return sigma, atoms


# --------------------------------------------------------------------------
# Output gates

# The paper's own blowup instance (p = q = 2) and its 7 recoveries: the
# sanity row run beside recover-blowup.
PAPER_SANITY = {"p": 2, "q": 2, "recoveries": 7}


def blowup_recoveries(p, q):
    """(candidates, recoveries) of Chase^-1 on the blowup target, counted
    straight from Def. 9: its single cover reverse-chases to
    I_H = {R(a_i, n_i)} u {R(m_j, c_j)}; every g sends each n_i to some
    c_j and each m_j to some a_i, and every distinct g(I_H) is a
    recovery (its chase is J)."""
    distinct = set()
    candidates = 0
    for ns in itertools.product(range(q), repeat=p):
        for ms in itertools.product(range(p), repeat=q):
            candidates += 1
            pairs = {(i, ns[i]) for i in range(p)}
            pairs |= {(ms[j], j) for j in range(q)}
            distinct.add(frozenset(pairs))
    return candidates, len(distinct)


def engine_golden(workload, params):
    """The expected output of one engine op, in canonical constant names,
    derived from the paper rather than from a run of the program."""
    if workload == "recover-blowup":
        candidates, recoveries = blowup_recoveries(params["p"], params["q"])
        return {"recoveries": recoveries, "covers": 1,
                "candidates": candidates}
    if workload == "certain-triangle":
        # S(a_i, b_i) is only produced by R(x, x, y), so R(a_i, a_i, _) is
        # in every recovery; no other R(x, x, _) atom is forced.
        return {"exact": ["(a%d)" % i for i in range(params["s"])]}
    if workload == "employee-large":
        # Unique cover, quasi-guarded safe (Example 8): every benefit of
        # dept0 is certain, and the Sec. 6 paths are complete here.
        exact = ["(bnf0_%d)" % b for b in range(params["benefits"])]
        return {"exact": exact,
                "analyze": {"all_coverable": True, "unique_cover": True,
                            "quasi_guarded_safe": True},
                # I_{Sigma,J}: one Emp(n, d) per employee and one
                # Bnf(d, b) per department benefit.
                "subuniversal_atoms": params["departments"] *
                (params["employees"] + params["benefits"])}
    raise ValueError("no golden for " + workload)


def check_engine_output(workload, output, golden, rename):
    """Problems with one op's output (empty list when it is correct)."""
    problems = []
    if "error" in output:
        return ["op failed: %s" % output["error"]]
    if workload == "recover-blowup":
        for key, want in golden.items():
            if output.get(key) != want:
                problems.append("%s=%r, want %r" % (key, output.get(key), want))
        return problems
    exact_want = rename_answers(golden["exact"], rename)
    if sorted(output.get("exact", [])) != exact_want:
        problems.append("exact CERT %r, want %r" % (output.get("exact"),
                                                    exact_want))
    if workload == "employee-large":
        if output.get("analyze") != golden["analyze"]:
            problems.append("analyze %r" % output.get("analyze"))
        if output.get("subuniversal_atoms") != golden["subuniversal_atoms"]:
            problems.append("subuniversal atoms %r" %
                            output.get("subuniversal_atoms"))
        # Thms. 7-9: the sound answers are certain.
        for key in ("sound_ucq", "sound_cq"):
            extra = set(output.get(key, [])) - set(exact_want)
            if extra:
                problems.append("%s not sound: %r" % (key, sorted(extra)))
    return problems


def check_serve_response(kind, response, expected):
    """Classifies one dxrecd response against the direct-engine reference
    for its session: 'ok', 'degraded', 'shed', 'failed' or 'wrong'."""
    if response is None:
        return "failed"
    if not response.get("ok"):
        err = response.get("error", {}).get("kind")
        return "shed" if err == "overloaded" else "failed"
    if kind == "open_session":
        return "ok" if response.get("target_atoms") == expected["target_atoms"] \
            else "wrong"
    if kind == "close_session":
        return "ok"
    if kind not in ("certain", "recover"):
        raise ValueError("unknown op " + kind)
    # Answers are tuples, recoveries serialized instances; both compared
    # as sets. An exact answer equals the reference; a sound rung's is a
    # subset of it.
    field = "answers" if kind == "certain" else "recoveries"
    listed = response.get(field, [])
    got, want = set(listed), set(expected[field])
    if response.get("rung") == "exact":
        return "ok" if got == want and len(got) == len(listed) else "wrong"
    return "degraded" if got <= want else "wrong"


# --------------------------------------------------------------------------
# Open-loop schedule and accounting

def poisson_schedule(rng, rate, seconds):
    """Due times in microseconds of a Poisson arrival process."""
    due, t = [], rng.expovariate(rate)
    while t < seconds:
        due.append(int(t * 1e6))
        t += rng.expovariate(rate)
    return due


def backlog_series(records, points=40):
    """Outstanding requests (due but not yet answered) sampled at evenly
    spaced instants over the schedule. A request that never completed
    stays outstanding. records: dicts with due_us and done_us (None when
    it never completed)."""
    if not records:
        return []
    end = max(r["due_us"] for r in records)
    dues = sorted(r["due_us"] for r in records)
    dones = sorted(r["done_us"] for r in records if r["done_us"] is not None)
    series = []
    for i in range(1, points + 1):
        t = end * i / points
        series.append(bisect.bisect_right(dues, t) -
                      bisect.bisect_right(dones, t))
    return series


def backlog_quarters(records, points=40):
    """(mean backlog over the step's second quarter, mean over its last
    quarter), in requests. The first quarter is ramp-up."""
    series = backlog_series(records, points)
    if len(series) < 4:
        return 0.0, 0.0
    q = len(series) // 4
    early, late = series[q:2 * q], series[-q:]
    return sum(early) / len(early), sum(late) / len(late)


def step_result(records, limit_ms, slack_requests):
    """Accounting for one fixed-rate step. records: dicts with due_us,
    sent_us, done_us (None if no answer) and outcome (see
    check_serve_response). The step passes when nothing failed or was
    shed, p99 latency from the due time is within limit_ms, and the
    backlog did not grow by more than its slack."""
    latencies = [(r["done_us"] - r["due_us"]) / 1e3 for r in records
                 if r["done_us"] is not None]
    lateness = [(r["sent_us"] - r["due_us"]) / 1e3 for r in records
                if r["sent_us"] is not None and r["sent_us"] >= 0]
    failed = sum(1 for r in records
                 if r["outcome"] in ("failed", "shed", "wrong"))
    early_mean, late_mean = backlog_quarters(records)
    growth = late_mean - early_mean
    p99 = tail_percentile(latencies) if latencies else float("inf")
    return {
        "attempted": len(records),
        "failed": failed,
        "p50_ms": percentile(latencies, 50) if latencies else float("inf"),
        "p99_ms": p99,
        "late_ms_p99": tail_percentile(lateness) if lateness else 0.0,
        "backlog_growth": growth,
        "passed": (failed == 0 and p99 <= limit_ms and
                   growth <= max(slack_requests, 0.5 * early_mean)),
    }


def max_passing_rate(steps):
    """Highest rate of the ladder whose step passed, climbing from the
    bottom and stopping at the first failure; 0 if the first fails."""
    best = 0
    for rate, passed in steps:
        if not passed:
            break
        best = rate
    return best


# --------------------------------------------------------------------------
# Spans

def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times_ms(spans):
    """Per span index: its duration minus the time its children cover.
    Children of one span run one after another on the traced thread."""
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_ms[span["parent"]] += (span["end_us"] - span["start_us"]) / 1e3
    return [(s["end_us"] - s["start_us"]) / 1e3 - child_ms[i]
            for i, s in enumerate(spans)]


PER_COVER_PHASES = ("reverse_chase_ms", "forward_chase_ms", "g_hom_ms",
                    "verify_ms")
SEQUENTIAL_PHASES = ("hom_enum_ms", "cover_enum_ms", "subsumption_ms",
                     "merge_ms")


def recover_unattributed_ms(span_ms, stats, threads):
    """Wall time of an Engine::Recover span no reported phase explains.
    Per-cover phases are summed over covers by InverseChaseStats, so they
    enter divided by the pool width that ran them; idle pool time lands
    here."""
    width = max(1, min(threads, stats["covers"]))
    attributed = sum(stats[k] for k in SEQUENTIAL_PHASES)
    attributed += sum(stats[k] for k in PER_COVER_PHASES) / width
    return span_ms - attributed
