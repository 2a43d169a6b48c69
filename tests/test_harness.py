import dataclasses
import json

import pytest

from msra.cluster import ScalingRequirements, ServerProfile
from msra.errors import ConfigurationError
from msra import cli
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
    read_summary,
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
                                         min_cpu=100.0, max_cpu=2000.0,
                                         min_mem=64.0, max_mem=4096.0),
        initial_replicas=1,
        initial_cpu=200.0,
        initial_mem=128.0,
    )
    controllers = controllers or (
        MsRaSpec(name="MS-RA-A", slo1_threshold=95.0, slo2_threshold=0.5,
                 preferred_strategy="conservative", vertical_cpu_rate=20.0,
                 vertical_mem_rate=20.0),
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
            "75.0,poor,conservative,frontend,replicas+1;cpu=240;mem=153.6,verdict poor: scale up,-19.510",
            "90.0,poor,conservative,frontend,none,,-18.793",
            "105.0,poor,conservative,frontend,replicas+1;cpu=288;mem=184.32,verdict poor: scale up,-12.876",
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


class TestExport:
    def test_round_trip(self, tmp_path):
        cfg = small_config(repetitions=1)
        reports = run_experiment(cfg)
        export(reports, str(tmp_path / "out"))
        rows = read_summary(str(tmp_path / "out" / "summary.csv"))
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


class TestConfigSerialization:
    def test_json_round_trip(self):
        cfg = benchmark_preset()
        data = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(data) == cfg

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
