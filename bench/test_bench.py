"""Tests of the benchmark itself.

    python3 -m pytest bench

The generator's answers are checked against tests/oracles.py on small
sizes; the metric names the benchmark prints are checked against
BENCHMARK.json, both ways.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import eraserlang as lib  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def staged(word):
    return tuple(lib.Eraser(-s) if s < 0 else s for s in word)


# ------------------------------------------------------------- seeding

def test_same_seed_gives_same_inputs():
    for inputs in (workloads.long_inputs, workloads.identity_inputs,
                   workloads.cli_inputs):
        assert inputs(7) == inputs(7)
    assert workloads.long_inputs(7) != workloads.long_inputs(8)
    assert workloads.cli_inputs(7) != workloads.cli_inputs(8)


def test_sweep_seed_only_orders_each_length():
    a, b, c = (workloads.sweep_inputs(s) for s in (3, 3, 4))
    assert a == b
    words_a, words_c = a["factorize"][0], c["factorize"][0]
    assert words_a != words_c and sorted(words_a) == sorted(words_c)
    assert [len(w) for w in words_a] == sorted(len(w) for w in words_a)


# ------------------------------------------- known answers vs oracles

def test_vanishing_agrees_with_oracle():
    for w in gen.staged_words(6, 3):
        assert gen.vanishes(w) == oracles.vanishes_brute(
            staged(w), max(1, gen.top_index(w)))


def test_grammar_members_agree_with_oracle():
    members = gen.grammar_members(8)
    for w in gen.staged_words(8, 1):
        assert (w in members) == oracles.vanishes_brute(staged(w), 1)


def test_factors_and_concatenations_agree_with_oracle():
    rows = oracles.factor_rows(10)
    factors = gen.factors_upto(10)
    assert factors == [w for n in sorted(rows) for w in rows[n]]
    assert all(gen.is_factor(w) for w in factors)
    concat = gen.concatenations(factors, 10)
    members = oracles.concat_members(rows, 10)
    assert set(concat) == set().union(*members.values())
    for w, cuts in concat.items():
        assert all(w[a:b] in rows[b - a] for a, b in zip(cuts, cuts[1:]))


def test_pinned_viable_words_agree_with_oracle():
    pinned = json.loads((HERE / "pinned" / "viable_upto6.json")
                        .read_text(encoding="ascii"))
    members = oracles.concat_members(oracles.factor_rows(13), 13)
    # prefixes of length <= 3 within 10 letters of a member up to 13
    # letters: the same set the pin took from members up to 16
    assert ({w for w in pinned if len(w) <= 3}
            == oracles.prefix_oracle(members, 3, 10))


@pytest.mark.parametrize("seed", range(4))
def test_random_builders_agree_with_oracle(seed):
    rng = random.Random(seed)
    for top in (1, 2, 3):
        p = gen.pad(rng, rng.randint(0, 12), top, 0.6)
        assert oracles.vanishes_brute(staged(p), top)
    word, kept = gen.erasable(rng, 300, 3, 5, 0.6)
    assert oracles.pipeline(staged(word), 3) == tuple(kept)
    member = gen.mountain(rng, 5)
    assert oracles.vanishes_brute(staged(member), 1)
    miss = gen.near_miss(rng, member, rng.randrange(len(member)))
    assert not oracles.vanishes_brute(staged(miss), 1)

    text, cuts = gen.stream(rng, 2, 2, 1, 2, 0.6)
    assert all(gen.is_factor(text[a:b]) for a, b in zip(cuts, cuts[1:]))
    assert oracles.viable_by_extension(
        text[:rng.choice(gen.inside_positions(text))], 4)
    bad, _ = gen.spoil(rng, text)
    assert not oracles.viable_by_extension(bad, 3)

    prefix, period = tuple(kept), tuple(rng.choice(gen.LETTERS)
                                        for _ in range(4))
    u, v = gen.normalize_up(prefix, period)
    assert oracles.primitive_root(v) == v
    assert (oracles.take(lib.UPWord(u, v), 40)
            == oracles.take(lib.UPWord(prefix, period), 40))


# ---------------------------------------------------------- host speed

def test_host_speed_scales_by_nearby_probes_and_drops_them():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.PROBE_REF_S
    # probes at t = 0, 10 (inside) and 20, all twice the reference time
    for at in (0.0, 10.0, 20.0):
        speed.at.append(at)
        speed.took.append(2 * ref)
        speed.spent.append(len(speed.at) * 2 * ref)
    # 15 s elapsed minus the probe inside, at half the reference speed
    assert speed.seconds(5.0, 20.0) == pytest.approx((15.0 - 2 * ref) / 2)
    assert speed.seconds(1.0, 2.0) == pytest.approx(0.5)


# --------------------------------------------------------- metric names

def test_declared_metrics_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == worker.per_layer_metrics()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_printed_metrics_are_those_of_benchmark_json(capsys):
    # one traced repeat of the long workload, cut to one call per group
    tracer = worker.Tracer()
    speed = worker.HostSpeed()
    groups = workloads.long_groups(workloads.long_inputs(1), lib,
                                   worker.Calls(lib, tracer))
    res = worker.run_groups([g._replace(args=g.args[:1],
                                        expected=g.expected[:1])
                             for g in groups], tracer, speed)
    assert res["failed"] == 0
    res.update(peak_rss_mb=1.0, import_blocks=1, workload_blocks=1)
    report = worker.make_report("long", res, tracer, speed)
    m = {"plain": [report], "traced": [report], "setups": [0.1]}
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        out = run.report("long", 1, m, trace)
        printed = capsys.readouterr().out
        names = {spec["name"] for spec in SPEC[key]}
        assert set(out["metrics"]) == names
        assert all(f"  {name} " in printed for name in names)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
