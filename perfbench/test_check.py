"""The benchmark's output checker catches each planted fault.

Each test runs a small valid workload (a few hundred requests), shows the
checker passes it, then plants one fault into a copy of its outputs and
shows the checker reports it.  Run with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import dataclasses
import math

import pytest

from perfbench.check import check_run
from perfbench.workloads import WORKLOADS, prepare


def _small_run(name, tmp_path_factory, **changes):
    workload = dataclasses.replace(WORKLOADS[name], **changes)
    prepared = prepare(workload, 11, tmp_path_factory.mktemp(name))
    return workload, prepared, prepared.run()


@pytest.fixture(scope="module")
def nstd_run(tmp_path_factory):
    return _small_run("nyc-day-cold", tmp_path_factory, factor=0.03, hours=(7.0, 10.0))


@pytest.fixture(scope="module")
def share_run(tmp_path_factory):
    return _small_run("nyc-morning-share", tmp_path_factory, factor=0.03, hours=(7.0, 10.0))


@pytest.fixture(scope="module")
def durable_run(tmp_path_factory):
    return _small_run("nyc-day-warm-durable", tmp_path_factory, factor=0.02, hours=(7.0, 9.0))


def _check(run, result=None):
    workload, prepared, original = run
    return check_run(workload.kind, prepared.fleet, prepared.requests, prepared.sim_config,
                     result if result is not None else original, prepared.durable_dir)


def _frame_faults(report, frame_time, result):
    index = next(i for i, f in enumerate(result.frame_stats) if f.time_s == frame_time)
    return " | ".join(report.bad_frames.get(index, []))


@pytest.mark.parametrize("fixture", ["nstd_run", "share_run", "durable_run"])
def test_valid_runs_pass(fixture, request):
    run = request.getfixturevalue(fixture)
    report = _check(run)
    assert report.ok, report.faults()
    assert report.ops > 0 and run[2].assignments


def test_blocking_pair_is_caught(nstd_run):
    result = copy.deepcopy(nstd_run[2])
    record = result.assignments[len(result.assignments) // 2]
    # Unmatch one pair: both sides stay free and find each other acceptable.
    result.assignments.remove(record)
    outcome = next(o for o in result.outcomes if o.request_id == record.request_ids[0])
    outcome.dispatch_time_s = outcome.pickup_time_s = outcome.dropoff_time_s = None
    outcome.taxi_id = None
    report = _check(nstd_run, result)
    assert "blocking pair" in _frame_faults(report, record.frame_time_s, result)


def test_double_booked_taxi_is_caught(nstd_run):
    result = copy.deepcopy(nstd_run[2])
    outcome_of = {o.request_id: o for o in result.outcomes}
    # A later assignment handed to a taxi whose earlier ride has not ended.
    for early in result.assignments:
        busy_until = outcome_of[early.request_ids[0]].dropoff_time_s
        later = next(
            (
                (i, a)
                for i, a in enumerate(result.assignments)
                if early.frame_time_s < a.frame_time_s < busy_until
                and a.taxi_id != early.taxi_id
            ),
            None,
        )
        if later is not None:
            break
    index, record = later
    result.assignments[index] = dataclasses.replace(record, taxi_id=early.taxi_id)
    outcome_of[record.request_ids[0]].taxi_id = early.taxi_id
    report = _check(nstd_run, result)
    assert "while busy" in _frame_faults(report, record.frame_time_s, result)


def test_over_threshold_pair_is_caught(nstd_run):
    workload, prepared, original = nstd_run
    result = copy.deepcopy(original)
    dcfg = prepared.sim_config.dispatch
    first_time = result.assignments[0].frame_time_s
    frame = [(i, a) for i, a in enumerate(result.assignments) if a.frame_time_s == first_time]
    used = {a.taxi_id for _, a in frame}
    index, record = frame[0]
    request = next(r for r in prepared.requests if r.request_id == record.request_ids[0])
    trip = math.dist((request.pickup.x, request.pickup.y), (request.dropoff.x, request.dropoff.y))
    # At the first dispatch every taxi is idle at its fleet position.
    far = next(
        t for t in prepared.fleet
        if t.taxi_id not in used
        and math.dist((t.location.x, t.location.y), (request.pickup.x, request.pickup.y))
        - dcfg.alpha * trip > dcfg.taxi_threshold_km
    )
    result.assignments[index] = dataclasses.replace(record, taxi_id=far.taxi_id)
    next(o for o in result.outcomes if o.request_id == request.request_id).taxi_id = far.taxi_id
    report = _check(nstd_run, result)
    assert "threshold" in _frame_faults(report, first_time, result)


def test_over_theta_detour_is_caught(share_run):
    workload, prepared, original = share_run
    result = copy.deepcopy(original)
    record = next(a for a in result.assignments if len(a.request_ids) > 1)
    speed_kms = prepared.sim_config.taxi_speed_kmh / 3600.0
    outcome = next(o for o in result.outcomes if o.request_id == record.request_ids[0])
    # The rider is dropped off as if driven θ + 1 km out of the way.
    outcome.dropoff_time_s += (prepared.sim_config.dispatch.theta_km + 1.0) / speed_kms
    report = _check(share_run, result)
    assert "detour" in _frame_faults(report, record.frame_time_s, result)


def test_flipped_journal_byte_is_caught(durable_run):
    workload, prepared, result = durable_run
    journal = prepared.durable_dir / "journal.jsonl"
    original = journal.read_bytes()
    lines = original.split(b"\n")
    # A digit inside the sixth record's "queue" count: still valid JSON.
    target = sum(len(line) + 1 for line in lines[:5]) + lines[5].index(b'"queue":') + 8
    data = bytearray(original)
    assert chr(data[target]).isdigit()
    data[target] = ord("7") if data[target] != ord("7") else ord("3")
    try:
        journal.write_bytes(bytes(data))
        report = _check(durable_run)
    finally:
        journal.write_bytes(original)
    assert any("CRC-32" in error for error in report.errors), report.faults()
