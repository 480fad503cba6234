"""Time-scaled input families and the checks on their answers.

Every benchmark input is a fixed base system whose time values (every
WCET, separation, deadline and server latency) are multiplied by an
integer factor ``k``. Rates are work per time, so they stay. Scaling time
scales every delay bound by exactly ``k`` and leaves the path counts
alone, so all members of a family cost the same to analyse, yet each
member has its own canonical form and defeats the result cache and the
rbf memo.
"""

import json
import os
import random
import re
from fractions import Fraction

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Separations of the dense task have denominator 10007. At a multiple of it
# every value is an integer and the analysis runs measurably faster, so
# such factors are never drawn.
BASE_DEN = 10007
K_MAX = 10**6

TIME_KEYS = ("wcet", "sep", "deadline", "latency")
_TIME_VALUE = re.compile(r"\b(%s)=(\d+)(?:/(\d+))?" % "|".join(TIME_KEYS))


def _read(name):
    with open(os.path.join(DATA, name)) as f:
        return f.read()


def _without_comments(text):
    return "".join(l for l in text.splitlines(True) if not l.lstrip().startswith("#"))


def dense_task():
    """The 5-vertex dense adversarial-class task (bump 0): heavy and light
    job types at demand density 1, fully connected, with pairwise-distinct
    fractional separations."""
    names = ["h0", "h1", "h2", "l3", "l4"]
    base = {n: 8 if n.startswith("h") else 5 for n in names}
    lines = ["task dense"]
    for i, n in enumerate(names):
        lines.append(f"vertex {n} wcet={base[n] * BASE_DEN + 56 + 7 * i}/{BASE_DEN}")
    edge = 0
    for a in names:
        for b in names:
            if a != b:
                lines.append(f"edge {a} {b} sep={base[a] * BASE_DEN + 69 + 13 * edge}/{BASE_DEN}")
                edge += 1
    return "\n".join(lines) + "\n"


def decoder_tasks():
    """The ``decoder`` and ``telemetry`` tasks of the shipped sample,
    without its server line."""
    text = _without_comments(_read("decoder.srtw"))
    return "".join(l for l in text.splitlines(True) if not l.startswith("server"))


# Three streams on one server: dense, decoder, telemetry.
MULTI6 = dense_task() + "\n" + decoder_tasks() + "\nserver rate-latency rate=2 latency=6\n"

# The shipped adversarial system: exact exploration does not finish, so
# only a deadline-degraded answer exists.
ADVERSARIAL = _without_comments(_read("adversarial.srtw"))

FAMILIES = {"multi6": MULTI6, "adversarial": ADVERSARIAL}


def scale(text, k):
    """``text`` with every time value multiplied by ``k``."""

    def one(m):
        key, num, den = m.group(1), int(m.group(2)), m.group(3)
        return f"{key}={num * k}" + (f"/{den}" if den else "")

    return _TIME_VALUE.sub(one, text)


def member(family, k):
    return scale(FAMILIES[family], k)


def factors(label, seed):
    """Distinct scale factors in [1, 10^6], none a multiple of 10007,
    drawn from ``seed``. Each (label, seed) pair gives its own stream."""
    rng = random.Random(f"{label}/{seed}")
    seen = set()
    while True:
        k = rng.randint(1, K_MAX)
        if k % BASE_DEN and k not in seen:
            seen.add(k)
            yield k


# --- checks ---------------------------------------------------------------

DIMENSIONLESS = ("utilization",)
_NUMBER = re.compile(r"(\d+(?:/\d+)?)")


def _is_rational(v):
    return isinstance(v, dict) and list(v) == ["num", "den", "approx"]


def compare_scaled(got, ref, k, where="$"):
    """First difference between an analysis document ``got`` and the
    reference document ``ref`` scaled by ``k``, or None.

    Time-valued rationals must equal ``k`` times the reference exactly;
    dimensionless ones (utilization), counts, labels and flags must be
    equal; ``approx`` must be the float of the exact value, as the
    program renders it. The numbers inside a degradation's ``detail`` are
    time values too. ``runtime_secs`` is a measurement and is skipped.
    """
    if _is_rational(ref):
        if not _is_rational(got):
            return f"{where}: expected a rational, got {got!r}"
        factor = 1 if where.rsplit(".", 1)[-1] in DIMENSIONLESS else k
        want = Fraction(ref["num"], ref["den"]) * factor
        if (got["num"], got["den"]) != (want.numerator, want.denominator):
            return f"{where}: {got['num']}/{got['den']} != {want} (= {factor} x reference)"
        if got["approx"] != float(want.numerator) / float(want.denominator):
            return f"{where}: approx {got['approx']!r} does not match {want}"
        return None
    if isinstance(ref, dict):
        if not isinstance(got, dict) or list(got) != list(ref):
            return f"{where}: keys {list(got) if isinstance(got, dict) else got!r} != {list(ref)}"
        for key in ref:
            if key == "runtime_secs":
                continue
            diff = compare_scaled(got[key], ref[key], k, f"{where}.{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{where}: list of {len(got) if isinstance(got, list) else got!r} != {len(ref)}"
        for i, (g, r) in enumerate(zip(got, ref)):
            diff = compare_scaled(g, r, k, f"{where}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(ref, str) and where.endswith(".detail") and isinstance(got, str):
        g, r = _NUMBER.split(got), _NUMBER.split(ref)
        same_text = len(g) == len(r) and g[0::2] == r[0::2]
        if not same_text or any(Fraction(x) != Fraction(y) * k for x, y in zip(g[1::2], r[1::2])):
            return f"{where}: {got!r} != {k} x {ref!r}"
        return None
    if got != ref or type(got) is not type(ref):
        return f"{where}: {got!r} != {ref!r}"
    return None


def check_scaled(body, ref, k):
    """``compare_scaled`` on a raw response body or CLI stdout."""
    try:
        doc = json.loads(body)
    except ValueError as e:
        return f"not JSON: {e}"
    return compare_scaled(doc, ref, k)


def golden_bounds(doc):
    """The bounds of a multi6 document that must never change: the RTC
    bound and busy window, and per stream every vertex bound, the stream
    bound and the busy window."""
    q = lambda v: f"{v['num']}/{v['den']}"
    return {
        "rtc": {"bound": q(doc["rtc"]["bound"]), "busy_window": q(doc["rtc"]["busy_window"])},
        "streams": {
            s["task"]: {
                "per_vertex": {v["label"]: q(v["bound"]) for v in s["per_vertex"]},
                "stream_bound": q(s["stream_bound"]),
                "busy_window": q(s["busy_window"]),
            }
            for s in doc["streams"]
        },
    }


def check_golden(doc):
    """None when the base multi6 document carries the recorded bounds."""
    with open(os.path.join(DATA, "multi6_bounds.json")) as f:
        want = json.load(f)
    got = golden_bounds(doc)
    return None if got == want else f"base bounds changed: {got} != recorded {want}"


def check_deadline(status, body):
    """None when a deadline answer is a 200 degraded by the wall clock."""
    if status != 200:
        return f"status {status}: {body[:200]!r}"
    try:
        doc = json.loads(body)
    except ValueError as e:
        return f"not JSON: {e}"
    if doc.get("degraded") is not True:
        return "answer not degraded"
    tripped = {d.get("tripped") for s in doc.get("streams", []) for d in s.get("degradations", [])}
    if "wall_clock" not in tripped:
        return f"no wall_clock degradation (tripped: {sorted(map(str, tripped))})"
    return None
