import csv
import dataclasses
import json
import random

import pytest

from msra.cluster import ClusterSim, ScalingRequirements, ServerProfile
from msra.controller_hpa import HpaConfig, HpaController
from msra.controller_msra import MsRaController
from msra.errors import ConfigurationError
from msra import cli, harness
from msra.slo import StrategyLevel, build_status, measure
from msra.telemetry import MetricSample, MetricStore
from msra.harness import (
    ExperimentConfig,
    HpaSpec,
    MsRaSpec,
    RunReport,
    ServiceConfig,
    benchmark_preset,
    config_from_dict,
    config_to_dict,
    export,
    reduction_pct,
    run_experiment,
    run_single,
    summarize,
)
from msra.workload import LoadProfile


def small_config(phases=((60.0, 2), (60.0, 4)), repetitions=1, controllers=None):
    service = ServiceConfig(
        name="frontend",
        profile=ServerProfile(nominal_service_time=0.5, reference_cpu=100.0,
                              startup_duration=2.0, startup_cpu_surge=1.5,
                              memory_base=100.0, memory_per_inflight=10.0),
        requirements=ScalingRequirements(min_replicas=1, max_replicas=10,
                                         min_cpu=100.0, max_cpu=2000.0),
        initial_replicas=1,
        initial_cpu=200.0,
    )
    controllers = controllers or (
        MsRaSpec(name="MS-RA-A", slo1_threshold=95.0, slo2_threshold=0.5,
                 preferred_strategy="conservative", vertical_cpu_rate=20.0),
        HpaSpec(name="HPA-A", slo1_threshold=95.0, slo2_threshold=0.5, cpu_threshold=60.0),
    )
    return ExperimentConfig(
        services=(service,),
        workload=LoadProfile(phases=phases, target_service="frontend", think_time=1.0),
        controllers=controllers,
        repetitions=repetitions,
        seed=7,
    )


class TestPreset:
    def test_six_profiles_with_table_parameters(self):
        cfg = benchmark_preset()
        names = [c.name for c in cfg.controllers]
        assert names == ["MS-RA-A", "MS-RA-B", "MS-RA-C", "HPA-A", "HPA-B", "HPA-C"]
        assert cfg.repetitions == 10
        by_name = {c.name: c for c in cfg.controllers}
        assert [by_name[f"MS-RA-{x}"].slo1_threshold for x in "ABC"] == [95.0, 90.0, 85.0]
        assert [by_name[f"MS-RA-{x}"].slo2_threshold for x in "ABC"] == [0.5, 1.0, 2.0]
        assert [by_name[f"MS-RA-{x}"].vertical_cpu_rate for x in "ABC"] == [20.0, 10.0, 0.0]
        assert [by_name[f"HPA-{x}"].cpu_threshold for x in "ABC"] == [60.0, 70.0, 80.0]


class TestRunSingle:
    def test_zero_user_workload_is_quiescent(self):
        cfg = small_config(phases=((120.0, 0),))
        for ctrl in cfg.controllers:
            rep = run_single(cfg, ctrl, 0)
            assert rep.requests == 0
            assert rep.avg_replicas == 1.0
            assert rep.slo1_violations == 0 and rep.slo2_violations == 0

    def test_decision_log_schema(self):
        cfg = small_config(repetitions=1)
        rep = run_single(cfg, cfg.controllers[0], 0)
        assert rep.decisions, "controller should log every evaluation"
        assert all(len(row) == 7 for row in rep.decisions)
        rep_hpa = run_single(cfg, cfg.controllers[1], 0)
        # baseline leaves verdict/strategy columns empty
        assert all(row[1] == "" and row[2] == "" for row in rep_hpa.decisions)

    def test_decision_rows_are_pinned(self):
        # Literal rows, so a formatting slip fails here and not only in the benchmark digests.
        cfg = small_config(phases=((60.0, 4), (180.0, 16)))
        msra, hpa = ([",".join(row) for row in run_single(cfg, ctrl, 0).decisions]
                     for ctrl in cfg.controllers)
        met = "met,conservative,frontend,none,,0.500"
        assert msra == [f"{t:.1f},{met}" for t in (15, 30, 45, 60)] + [
            "75.0,poor,conservative,frontend,replicas+1;cpu=240,verdict poor: scale up,-19.510",
            "90.0,poor,conservative,frontend,none,,-18.793",
            "105.0,poor,conservative,frontend,replicas+1;cpu=288,verdict poor: scale up,-12.876",
            "120.0,poor,conservative,frontend,none,,-7.921",
        ] + [f"{t:.1f},{met}" for t in range(135, 241, 15)]
        assert hpa == [
            "15.0,,,frontend,replicas->2,utilization=80.00%,",
            "30.0,,,frontend,none,utilization=40.00%,",
            "45.0,,,frontend,none,utilization=40.00%,",
            "60.0,,,frontend,none,utilization=40.00%,",
            "75.0,,,frontend,replicas->4,utilization=100.00%,",
            "90.0,,,frontend,replicas->6,utilization=76.67%,",
        ] + [f"{t:.1f},,,frontend,none,utilization=53.33%," for t in range(105, 241, 15)]

    def test_overload_run_is_pinned(self):
        # Far past the capacity of two replicas: thousands of requests time out
        # in service. MS-RA-A resizes while a replacement is starting, and the
        # HPA scales in at 30 s while its 15 s scale-out is still starting.
        base = small_config(phases=((15.0, 6), (15.0, 1), (210.0, 200)), controllers=(
            MsRaSpec(name="MS-RA-A", slo1_threshold=95.0, slo2_threshold=0.5,
                     preferred_strategy="conservative", vertical_cpu_rate=20.0),
            HpaSpec(name="HPA-A", slo1_threshold=95.0, slo2_threshold=0.5, cpu_threshold=60.0,
                    stabilization_window=15.0),
        ))
        service = base.services[0]
        cfg = dataclasses.replace(
            base,
            services=(dataclasses.replace(
                service,
                profile=dataclasses.replace(service.profile, startup_duration=20.0),
                requirements=dataclasses.replace(service.requirements, max_replicas=2),
            ),),
            workload=dataclasses.replace(base.workload, think_jitter=0.2),
        )
        msra, hpa = (run_single(cfg, ctrl, 0) for ctrl in cfg.controllers)
        assert (msra.requests, msra.failures, msra.slo1_violations, msra.slo2_violations) == (4382, 1781, 14, 14)
        assert (hpa.requests, hpa.failures, hpa.slo1_violations, hpa.slo2_violations) == (3926, 2772, 14, 14)
        poor = "poor,conservative,frontend"
        resized = [(75, "288", -82.969), (105, "345.6", -85.909), (135, "414.72", -90.592),
                   (165, "497.664", -90.246), (195, "597.197", -89.231), (225, "716.636", -88.059)]
        held = [(60, -78.661), (90, -86.078), (120, -86.440), (150, -91.072),
                (180, -90.140), (210, -89.362), (240, -88.382)]
        expected = {
            15.0: "15.0,met,conservative,frontend,none,,0.500",
            30.0: "30.0,met,conservative,frontend,none,,0.500",
            45.0: f"45.0,{poor},replicas+1;cpu=240,verdict poor: scale up,-66.575",
        }
        for t, cpu, budget in resized:
            expected[t] = (f"{t:.1f},{poor},cpu={cpu},"
                           f"verdict poor: scale up; at max replicas,{budget:.3f}")
        for t, budget in held:
            expected[t] = f"{t:.1f},{poor},none,,{budget:.3f}"
        assert [",".join(row) for row in msra.decisions] == [expected[t] for t in sorted(expected)]
        assert [",".join(row) for row in hpa.decisions] == [
            "15.0,,,frontend,replicas->2,utilization=100.00%,",
            "30.0,,,frontend,replicas->1,utilization=21.67%,",
            "45.0,,,frontend,replicas->2,utilization=100.00%,",
            "60.0,,,frontend,none,utilization=100.00%,",
            "75.0,,,frontend,none,utilization=82.63%,",
        ] + [f"{t:.1f},,,frontend,none,utilization=100.00%," for t in range(90, 241, 15)]

    def test_idle_decision_rows_are_pinned(self):
        cfg = small_config(phases=((120.0, 0),))
        msra, hpa = (run_single(cfg, ctrl, 0).decisions for ctrl in cfg.controllers)
        assert msra == [[f"{t:.1f}", "met", "conservative", "frontend", "none",
                         "window without samples treated as met", ""] for t in range(15, 121, 15)]
        assert hpa == [[f"{t:.1f}", "", "", "frontend", "none", "utilization=0.00%", ""]
                       for t in range(15, 121, 15)]


class TestRunExperiment:
    def test_deterministic_given_config_and_seed(self):
        cfg = small_config(repetitions=2)
        first = run_experiment(cfg)
        second = run_experiment(cfg)
        assert first == second

    def test_profile_filter(self):
        cfg = small_config()
        reports = run_experiment(cfg, profiles=["HPA-A"])
        assert [r.profile for r in reports] == ["HPA-A"]
        with pytest.raises(ConfigurationError):
            run_experiment(cfg, profiles=["nope"])

    def test_repetitions_identical_without_jitter(self):
        report = run_experiment(small_config(repetitions=2), profiles=["HPA-A"])[0]
        a, b = report.reps
        assert (a.avg_replicas, a.avg_cpu, a.requests) == (b.avg_replicas, b.avg_cpu, b.requests)

    @pytest.mark.parametrize("jitter, runs", [(0.0, 1), (0.2, 3)])
    def test_repetitions_reuse_a_run_only_without_jitter(self, jitter, runs, monkeypatch):
        base = small_config(repetitions=3)
        cfg = dataclasses.replace(base, workload=dataclasses.replace(base.workload, think_jitter=jitter))
        ctrl = cfg.controllers[0]
        alone = tuple(run_single(cfg, ctrl, rep) for rep in range(3))
        calls = []
        monkeypatch.setattr(harness, "run_single", lambda *args: calls.append(args) or run_single(*args))
        assert run_experiment(cfg, profiles=[ctrl.name])[0].reps == alone
        assert len(calls) == runs

    def test_jitter_threads_the_seed_through_repetitions(self):
        base = small_config(repetitions=2)
        jittered = dataclasses.replace(
            base, workload=dataclasses.replace(base.workload, think_jitter=0.2))
        report = run_experiment(jittered, profiles=["HPA-A"])[0]
        again = run_experiment(jittered, profiles=["HPA-A"])[0]
        assert report == again  # seed + repetition index fixes the jitter draws


class TestSummarize:
    def make_report(self, profile, kind, replicas, cpu, mem):
        return RunReport(profile=profile, kind=kind, avg_replicas=replicas, cpu=cpu, mem=mem,
                         slo1_violations=0.0, slo2_violations=0.0, reps=())

    def test_reduction_arithmetic(self):
        assert reduction_pct(1.5, 15.0) == 90.0
        assert reduction_pct(10.0, 10.0) == 0.0

    def test_pairwise_reductions(self):
        reports = [self.make_report("MS-RA-A", "msra", 1.5, 50.0, 110.0),
                   self.make_report("HPA-A", "hpa", 15.0, 500.0, 1100.0)]
        summary = summarize(reports)
        assert summary.reductions == [("MS-RA-A", "HPA-A", 90.0, 90.0, 90.0)]
        text = summary.to_text()
        assert "MS-RA-A vs HPA-A" in text and "-90.0%" in text

    def test_growth_prints_a_plus_sign(self):
        reports = [self.make_report("MS-RA-A", "msra", 4.0, 13066.0, 110.0),
                   self.make_report("HPA-C", "hpa", 4.0, 1755.0, 0.0)]
        text = summarize(reports).to_text()
        assert "  MS-RA-A vs HPA-C: replicas -0.0%  cpu +644.5%  mem -0.0%\n" in text


class TestExport:
    def test_round_trip(self, tmp_path):
        cfg = small_config(repetitions=1)
        reports = run_experiment(cfg)
        export(reports, str(tmp_path / "out"))
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["profile"] for r in rows] == ["MS-RA-A", "HPA-A"]
        for row, report in zip(rows, reports):
            assert float(row["avg_replicas"]) == pytest.approx(report.avg_replicas, abs=1e-6)
            assert float(row["avg_cpu_millicpu"]) == pytest.approx(report.cpu, abs=1e-6)
        assert (tmp_path / "out" / "summary.txt").exists()
        assert (tmp_path / "out" / "runs" / "MS-RA-A-0" / "decisions.csv").exists()
        assert not (tmp_path / "out" / "runs" / "MS-RA-A-0" / "metrics.csv").exists()

    def test_reductions_grouped_by_kind_not_name(self, tmp_path):
        cfg = small_config(controllers=(
            MsRaSpec(name="MS-RA-A", slo1_threshold=95.0, slo2_threshold=0.5),
            HpaSpec(name="baseline", slo1_threshold=95.0, slo2_threshold=0.5, cpu_threshold=60.0),
        ))
        export(run_experiment(cfg), str(tmp_path / "out"))
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert "MS-RA-A vs baseline:" in text

    def test_timeseries_flag(self, tmp_path):
        cfg = small_config(repetitions=1)
        reports = run_experiment(cfg, profiles=["MS-RA-A"])
        export(reports, str(tmp_path / "out"), export_timeseries=True)
        metrics = (tmp_path / "out" / "runs" / "MS-RA-A-0" / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "time,ready_replicas,total_cpu,total_mem"
        assert len(metrics) > 10

    def test_empty_reports_write_header_only(self, tmp_path):
        export([], str(tmp_path / "out"))
        lines = (tmp_path / "out" / "summary.csv").read_text().strip().splitlines()
        assert lines == ["profile,avg_replicas,avg_cpu_millicpu,avg_mem_mb,slo1_violations,slo2_violations"]


# Each is rejected when the configuration loads, before any profile runs:
# (the keys leading to the value in config_to_dict's output, the bad value).
BAD_VALUES = {
    "phase duration not a number": (("workload", "phases", 0, 0), "x"),
    "slo threshold of 100": (("controllers", 0, "slo1_threshold"), 100.0),
    "negative cooldown": (("controllers", 0, "cooldown"), -5.0),
    "negative vertical rate": (("controllers", 0, "vertical_cpu_rate"), -10.0),
    "cpu threshold of 0": (("controllers", 1, "cpu_threshold"), 0.0),
    "cpu threshold in the tolerance dead zone": (("controllers", 1, "cpu_threshold"), 95.0),
    "unknown target service": (("workload", "target_service"), "backend"),
    "horizon not a multiple of metrics_interval": (("workload", "phases", 0, 0), 62.0),
    "slo window not a multiple of metrics_interval": (("controllers", 0, "slo_window"), 62.0),
    "slo window shorter than metrics_interval": (("controllers", 1, "slo_window"), 2.5),
    "timeout of 0": (("timeout",), 0.0),
    "initial replicas above max_replicas": (("services", 0, "initial_replicas"), 11),
    "initial cpu above max_cpu": (("services", 0, "initial_cpu"), 5000.0),
    "service listed twice": (("services",), config_to_dict(small_config())["services"] * 2),
    "fractional user count": (("workload", "phases", 0, 1), 2.5),
    "boolean user count": (("workload", "phases", 0, 1), True),
    "fractional initial replicas": (("services", 0, "initial_replicas"), 1.5),
    "boolean initial replicas": (("services", 0, "initial_replicas"), True),
    "float min_replicas": (("services", 0, "requirements", "min_replicas"), 1.0),
    "fractional max_replicas": (("services", 0, "requirements", "max_replicas"), 2.5),
    "fractional repetitions": (("repetitions",), 1.5),
    "boolean repetitions": (("repetitions",), True),
    "infinite phase duration": (("workload", "phases", 0, 0), float("inf")),
    "NaN think_time": (("workload", "think_time"), float("nan")),
    "NaN stabilization_window": (("controllers", 1, "stabilization_window"), float("nan")),
    "NaN cooldown": (("controllers", 0, "cooldown"), float("nan")),
    "profile name leaving the output directory": (("controllers", 0, "name"), "../../escaped"),
    "profile name with a subdirectory": (("controllers", 0, "name"), "a/b"),
    "profile name with a backslash": (("controllers", 0, "name"), "a\\b"),
    "empty profile name": (("controllers", 0, "name"), ""),
    "profile name with a NUL": (("controllers", 0, "name"), "a\0b"),
    "boolean timeout": (("timeout",), True),
    "boolean cooldown": (("controllers", 0, "cooldown"), False),
    "boolean nominal_service_time": (("services", 0, "profile", "nominal_service_time"), True),
    "phase duration as a string": (("workload", "phases", 0, 0), "30"),
    "string for a boolean": (("services", 0, "requirements", "vertical_enabled"), "no"),
    "0 for a boolean": (("services", 0, "requirements", "vertical_enabled"), 0),
    "1 for a boolean": (("services", 0, "requirements", "horizontal_enabled"), 1),
    "string tight_budget_threshold": (("controllers", 0, "tight_budget_threshold"), "2"),
    "string seed": (("seed",), "42"),
    "fractional seed": (("seed",), 1.5),
}

# The memory-allocation settings of earlier versions, and the keys leading to
# where each sat. No output ever read them, so they are gone, and a file that
# still sets one is rejected.
REMOVED_KEYS = {
    "initial_mem": ("services", 0),
    "min_mem": ("services", 0, "requirements"),
    "max_mem": ("services", 0, "requirements"),
    "vertical_mem_rate": ("controllers", 0),
}

# `msra --paper --dump-config` as an earlier version wrote it, scalar top-level
# keys first, minus the settings that are gone: the `stateful` flag and
# REMOVED_KEYS.
EARLIER_PRESET_DUMP = """{
  "seed": 42, "repetitions": 10, "timeout": 10.0, "metrics_interval": 5.0,
  "services": [{"name": "frontend",
    "profile": {"nominal_service_time": 0.5, "reference_cpu": 100.0, "startup_duration": 5.0,
                "startup_cpu_surge": 1.5, "memory_base": 100.0, "memory_per_inflight": 10.0},
    "requirements": {"horizontal_enabled": true, "vertical_enabled": true,
                     "min_replicas": 1, "max_replicas": 20, "min_cpu": 100.0, "max_cpu": 4000.0},
    "initial_replicas": 1, "initial_cpu": 500.0}],
  "workload": {"phases": [[300.0, 10], [300.0, 20], [300.0, 30], [300.0, 10], [300.0, 30], [300.0, 20]],
               "target_service": "frontend", "think_time": 1.0, "think_jitter": 0.0},
  "controllers": [
    {"name": "MS-RA-A", "kind": "msra", "slo1_threshold": 95.0, "slo2_threshold": 0.5,
     "slo1_deadline": 2.5, "slo_window": 60.0, "preferred_strategy": "conservative",
     "vertical_cpu_rate": 20.0, "evaluation_interval": 15.0,
     "cooldown": 30.0, "exceed_hysteresis": 2.0, "tight_budget_threshold": 2.0},
    {"name": "MS-RA-B", "kind": "msra", "slo1_threshold": 90.0, "slo2_threshold": 1.0,
     "slo1_deadline": 2.5, "slo_window": 60.0, "preferred_strategy": "normal",
     "vertical_cpu_rate": 10.0, "evaluation_interval": 15.0,
     "cooldown": 30.0, "exceed_hysteresis": 2.0, "tight_budget_threshold": 2.0},
    {"name": "MS-RA-C", "kind": "msra", "slo1_threshold": 85.0, "slo2_threshold": 2.0,
     "slo1_deadline": 2.5, "slo_window": 60.0, "preferred_strategy": "best_effort",
     "vertical_cpu_rate": 0.0, "evaluation_interval": 15.0,
     "cooldown": 30.0, "exceed_hysteresis": 2.0, "tight_budget_threshold": 2.0},
    {"name": "HPA-A", "kind": "hpa", "slo1_threshold": 95.0, "slo2_threshold": 0.5,
     "slo1_deadline": 2.5, "slo_window": 60.0, "cpu_threshold": 60.0,
     "stabilization_window": 90.0, "sync_period": 15.0},
    {"name": "HPA-B", "kind": "hpa", "slo1_threshold": 90.0, "slo2_threshold": 1.0,
     "slo1_deadline": 2.5, "slo_window": 60.0, "cpu_threshold": 70.0,
     "stabilization_window": 90.0, "sync_period": 15.0},
    {"name": "HPA-C", "kind": "hpa", "slo1_threshold": 85.0, "slo2_threshold": 2.0,
     "slo1_deadline": 2.5, "slo_window": 60.0, "cpu_threshold": 80.0,
     "stabilization_window": 45.0, "sync_period": 15.0}
  ]
}"""


class TestConfigSerialization:
    def test_json_round_trip(self):
        cfg = benchmark_preset()
        data = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(data) == cfg

    def test_earlier_preset_dump_loads_to_the_preset(self):
        assert config_from_dict(json.loads(EARLIER_PRESET_DUMP)) == benchmark_preset()

    @pytest.mark.parametrize("keys, misspelled", [
        ((), "metrics_intervall"),
        (("services", 0), "initial_replica"),
        (("workload",), "think_tme"),
        (("services", 0, "profile"), "stateful"),
    ], ids=["top-level", "service", "workload", "profile"])
    def test_unknown_key_rejected(self, keys, misspelled):
        data = config_to_dict(small_config())
        parent = data
        for key in keys:
            parent = parent[key]
        parent[misspelled] = 1
        with pytest.raises(ConfigurationError):
            config_from_dict(data)

    def test_spec_defaults_equal_engine_defaults(self):
        # A field the engine requires (HpaConfig.cpu_threshold) has no default to disagree with.
        spec_defaults = {f.name: f.default for f in dataclasses.fields(HpaSpec)}
        shared = [f for f in dataclasses.fields(HpaConfig)
                  if f.name in spec_defaults and f.default is not dataclasses.MISSING]
        assert len(shared) >= 2
        for f in shared:
            assert spec_defaults[f.name] == f.default, f"HpaConfig.{f.name}"

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_memory_key_rejected(self, key, tmp_path, capsys):
        data = config_to_dict(small_config())
        parent = data
        for k in REMOVED_KEYS[key]:
            parent = parent[k]
        parent[key] = 256.0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_bad_kind_rejected(self):
        data = config_to_dict(small_config())
        data["controllers"][0]["kind"] = "vpa"
        with pytest.raises(ConfigurationError):
            config_from_dict(data)

    @pytest.mark.parametrize("kind, foreign_key", [("hpa", "vertical_cpu_rate"), ("msra", "cpu_threshold")])
    def test_other_kinds_key_rejected(self, kind, foreign_key):
        data = config_to_dict(small_config())
        profile = next(c for c in data["controllers"] if c["kind"] == kind)
        profile[foreign_key] = 50.0
        with pytest.raises(ConfigurationError):
            config_from_dict(data)

    def test_control_interval_must_align_with_metrics(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(small_config(), metrics_interval=4.0)

    def test_missing_sections_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"services": []})

    @pytest.mark.parametrize("case", BAD_VALUES)
    def test_bad_value_rejected_at_load(self, case, tmp_path):
        data = config_to_dict(small_config())
        (*keys, last), value = BAD_VALUES[case]
        parent = data
        for key in keys:
            parent = parent[key]
        parent[last] = value
        with pytest.raises(ConfigurationError):
            config_from_dict(data)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert cli.main(["--config", str(cfg_path), "--dump-config"]) == 2


class TestCli:
    def test_dump_config(self, capsys):
        assert cli.main(["--paper", "--dump-config"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["controllers"]) == 6

    def test_small_run_writes_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(small_config())))
        out = tmp_path / "results"
        code = cli.main(["--config", str(cfg_path), "--out", str(out),
                         "--profiles", "HPA-A", "--reps", "1"])
        assert code == 0
        assert (out / "summary.csv").exists()
        assert "HPA-A" in capsys.readouterr().out

    def test_unknown_profile_fails(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(small_config())))
        assert cli.main(["--config", str(cfg_path), "--profiles", "nope",
                         "--out", str(tmp_path / "r")]) == 2

    def test_unwritable_output_dir_fails(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not dir")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(small_config(repetitions=1))))
        code = cli.main(["--config", str(cfg_path), "--profiles", "MS-RA-A",
                         "--out", str(blocker)])
        assert code == 1

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "absent.json")]) == 2


class TestSloCounts:
    def test_statuses_equal_the_metric_store_measure(self, monkeypatch):
        # Reference: every resolution recorded in a MetricStore from a resolve
        # hook, and each SLO measured from it at every tick.
        reference = {}

        class ReferenceSim(ClusterSim):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                store = reference["store"] = MetricStore()

                def record(rec):
                    store.record(MetricSample(rec.completion_time, rec.service, "response_time",
                                              rec.response_time))
                    store.record(MetricSample(rec.completion_time, rec.service, "failure",
                                              0.0 if rec.outcome == "completed" else 1.0))

                self.resolve_hooks.append(record)

        seen = {"ticks": 0, "empty": 0, "failed": 0}

        def checking(controller_cls):
            class Checking(controller_cls):
                def tick(self, now, statuses, sim):
                    store, slos = reference["store"], reference["slos"]
                    assert statuses == [build_status(slo, measure(store, self.service, slo, now),
                                                     StrategyLevel.BEST_EFFORT)
                                        for slo in slos]
                    seen["ticks"] += 1
                    seen["empty"] += not statuses[0].samples_present
                    seen["failed"] += statuses[1].samples_present and statuses[1].measured_compliance < 100.0
                    return super().tick(now, statuses, sim)
            return Checking

        monkeypatch.setattr(harness, "ClusterSim", ReferenceSim)
        monkeypatch.setattr(harness, "MsRaController", checking(MsRaController))
        monkeypatch.setattr(harness, "HpaController", checking(HpaController))
        rng = random.Random(21)
        for _ in range(20):
            interval = rng.choice([0.5, 2.5, 5.0])
            phases = tuple((interval * rng.randint(4, 40), rng.choice([0, 2, 5, 10]))
                           for _ in range(rng.randint(1, 3)))
            common = dict(slo1_threshold=90.0, slo2_threshold=1.0,
                          slo1_deadline=rng.choice([0.4, 1.0, 2.5, 20.0]),
                          slo_window=interval * rng.randint(1, 8))
            every = interval * rng.randint(1, 4)
            ctrl = rng.choice([MsRaSpec("MS-RA", evaluation_interval=every, cooldown=0.0,
                                        vertical_cpu_rate=20.0, **common),
                               HpaSpec("HPA", sync_period=every, stabilization_window=every, **common)])
            service = small_config().services[0]
            service = dataclasses.replace(service, profile=dataclasses.replace(
                service.profile, nominal_service_time=rng.choice([0.2, 0.5, 1.5]),
                startup_duration=rng.choice([0.0, 1.0, 5.0])))
            cfg = ExperimentConfig(
                services=(service,),
                workload=LoadProfile(phases=phases, think_jitter=rng.choice([0.0, 0.3])),
                controllers=(ctrl,),
                timeout=rng.choice([0.5, 2.0, 10.0]),
                metrics_interval=interval,
            )
            reference["slos"] = ctrl.slos
            run_single(cfg, ctrl, rng.randrange(100))
        assert seen["ticks"] > 200 and seen["empty"] > 0 and seen["failed"] > 0
