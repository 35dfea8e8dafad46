"""Tests for the ``python -m repro.experiments`` CLI."""

import pytest

from repro.experiments.__main__ import TARGETS, main


class TestCli:
    def test_tables_run(self, capsys):
        assert main(["table1", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "apsi" in out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure9"])

    def test_export_requires_single_figure(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["table1", "--export-csv", str(tmp_path / "x.csv")])

    def test_figure_quick_run_with_chart_and_export(self, tmp_path,
                                                    capsys):
        path = str(tmp_path / "fig.csv")
        assert main(["figure3", "--scale", "0.06", "--chart",
                     "--export-csv", path]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "|#" in out  # bar chart rendered
        with open(path) as stream:
            header = stream.readline()
        assert "figure" in header and "panel" in header

    def test_targets_inventory(self):
        assert "scenario" in TARGETS
        assert "heterogeneity" in TARGETS
        assert "ablations" in TARGETS
        assert {"figure1", "figure2", "figure3", "figure4"} <= set(TARGETS)


# ----------------------------------------------------------------------
# Command-line surface pins: every option string of both parsers maps
# to (dest, default, const, nargs, choices, type, action class); help
# text is left free.  A flag that changes any of these breaks scripts.
# ----------------------------------------------------------------------

#: The flags both CLIs define with identical attributes.
SHARED_SURFACE = {
    "--crash-policy": ("crash_policy", None, None, None,
                       ("requeue", "checkpoint"), None, "_StoreAction"),
    "--export-csv": ("export_csv", None, None, None, None, None,
                     "_StoreAction"),
    "--fault-seed": ("fault_seed", None, None, None, None, "int",
                     "_StoreAction"),
    "--faults": ("faults", False, True, 0, None, None, "_StoreTrueAction"),
    "--health-rule": ("health_rule", None, None, None, None, None,
                      "_AppendAction"),
    "--help": ("help", "==SUPPRESS==", None, 0, None, None, "_HelpAction"),
    "--log-json": ("log_json", None, None, None, None, None,
                   "_StoreAction"),
    "--mtbf": ("mtbf", None, None, None, None, "float", "_StoreAction"),
    "--mttr": ("mttr", None, None, None, None, "float", "_StoreAction"),
    "--nodes": ("nodes", None, None, None, None, "int", "_StoreAction"),
    "--obs": ("obs", False, True, 0, None, None, "_StoreTrueAction"),
    "--obs-metrics": ("obs_metrics", None, None, None, None, None,
                      "_StoreAction"),
    "--pace": ("pace", 0.0, None, None, None, "float", "_StoreAction"),
    "--report": ("report", None, None, None, None, None, "_StoreAction"),
    "--sample-period": ("sample_period", None, None, None, None, "float",
                        "_StoreAction"),
    "--scale": ("scale", 1.0, None, None, None, "float", "_StoreAction"),
    "--seed": ("seed", 0, None, None, None, "int", "_StoreAction"),
    "--self-profile": ("self_profile", False, True, 0, None, None,
                       "_StoreTrueAction"),
    "--serve": ("serve", None, 0, "?", None, "int", "_StoreAction"),
    "--serve-port-file": ("serve_port_file", None, None, None, None, None,
                          "_StoreAction"),
    "--trace-out": ("trace_out", None, None, None, None, None,
                    "_StoreAction"),
    "--window": ("window", None, None, None, None, "float", "_StoreAction"),
    "-h": ("help", "==SUPPRESS==", None, 0, None, None, "_HelpAction"),
}

RUNNER_ONLY_SURFACE = {
    "--checkpoint-at": ("checkpoint_at", None, None, None, None, "float",
                        "_StoreAction"),
    "--checkpoint-to": ("checkpoint_to", None, None, None, None, None,
                        "_StoreAction"),
    "--domain-exchange-interval": ("domain_exchange_interval", None, None,
                                   None, None, "float", "_StoreAction"),
    "--domains": ("domains", None, None, None, None, "int", "_StoreAction"),
    "--export-json": ("export_json", None, None, None, None, None,
                      "_StoreAction"),
    "--group": ("group", "spec", None, None, ("spec", "app"), None,
                "_StoreAction"),
    "--policy": ("policy", "g-loadsharing", None, None,
                 ("cpu", "g-loadsharing", "local", "memory", "srpt-oracle",
                  "suspension", "v-reconfiguration"), None, "_StoreAction"),
    "--profile": ("profile", False, True, 0, None, None,
                  "_StoreTrueAction"),
    "--prom": ("prom", None, None, None, None, None, "_StoreAction"),
    "--restore-from": ("restore_from", None, None, None, None, None,
                       "_StoreAction"),
    "--sampler-csv": ("sampler_csv", None, None, None, None, None,
                      "_StoreAction"),
    "--stream-log": ("stream_log", None, None, None, None, None,
                     "_StoreAction"),
    "--submit-stdin": ("submit_stdin", False, True, 0, None, None,
                       "_StoreTrueAction"),
    "--trace": ("trace", 3, None, None, None, "int", "_StoreAction"),
}

SWEEP_ONLY_SURFACE = {
    "--chart": ("chart", False, True, 0, None, None, "_StoreTrueAction"),
    "--domain-exchange-interval": ("domain_exchange_interval", None, None,
                                   None, None, None, "_StoreAction"),
    "--domains": ("domains", None, None, None, None, None, "_StoreAction"),
    "--jobs": ("jobs", 1, None, None, None, "int", "_StoreAction"),
    "--topology-blocking": ("topology_blocking", False, True, 0, None,
                            None, "_StoreTrueAction"),
    "--topology-policy": ("topology_policy", None, None, None, None, None,
                          "_StoreAction"),
    "--whatif-at": ("whatif_at", None, None, None, None, "float",
                    "_StoreAction"),
    "--whatif-base": ("whatif_base", None, None, None, None, None,
                      "_StoreAction"),
    "--whatif-checkpoint": ("whatif_checkpoint", None, None, None, None,
                            None, "_StoreAction"),
}


def parser_surface(parser):
    surface = {}
    for action in parser._actions:
        choices = (tuple(action.choices) if action.choices is not None
                   else None)
        kind = getattr(action.type, "__name__", action.type)
        for option in action.option_strings:
            surface[option] = (action.dest, action.default, action.const,
                               action.nargs, choices, kind,
                               type(action).__name__)
    return surface


class TestCliSurface:
    def test_runner_surface(self):
        from repro.experiments import runner

        assert parser_surface(runner.build_parser()) == {
            **SHARED_SURFACE, **RUNNER_ONLY_SURFACE}

    def test_sweep_surface(self):
        from repro.experiments import __main__ as sweep

        assert parser_surface(sweep.build_parser()) == {
            **SHARED_SURFACE, **SWEEP_ONLY_SURFACE}


RUNNER_USAGE_ERRORS = [
    (["--sampler-csv", "x.csv"], "--sampler-csv requires --sample-period"),
    (["--pace", "10"], "--pace requires --serve"),
    (["--serve-port-file", "port.txt"], "--serve-port-file requires --serve"),
    (["--submit-stdin"], "--submit-stdin requires --serve"),
    (["--serve", "0", "--pace", "-5"], "--pace must be >= 0"),
    (["--checkpoint-at", "10"],
     "--checkpoint-at and --checkpoint-to go together"),
    (["--restore-from", "x.ckpt", "--checkpoint-at", "1",
      "--checkpoint-to", "y.ckpt"],
     "--restore-from cannot be combined with --checkpoint-at"),
]

SWEEP_USAGE_ERRORS = [
    (["figure9"], f"unknown targets: ['figure9']; choose from {TARGETS}"),
    (["table1", "--export-csv", "x.csv"],
     "--export-csv needs exactly one figure target"),
    (["table1", "--nodes", "64"],
     "--nodes applies to figure and topology targets only"),
    (["figure1", "--domains", "2"],
     "--domains/--domain-exchange-interval/--topology-policy/"
     "--topology-blocking apply to the topology target; add 'topology' "
     "to the targets"),
    (["topology", "--domains", "a,b"],
     "--domains/--domain-exchange-interval take comma-separated numbers"),
    (["figure1", "--trace-out", "x.json"],
     "--trace-out/--log-json/--obs-metrics record the scenario target; "
     "add 'scenario' to the targets"),
    (["figure1", "--serve", "0"],
     "--serve/--window/--health-rule/--self-profile instrument the "
     "scenario target; add 'scenario' to the targets"),
    (["scenario", "--pace", "5"], "--pace requires --serve"),
    (["scenario", "--serve-port-file", "port.txt"],
     "--serve-port-file requires --serve"),
    (["scenario", "--serve", "0", "--pace", "-1"], "--pace must be >= 0"),
    (["table1", "--report", "r.html"],
     "--report needs exactly one of the scenario, degradation, topology, "
     "or whatif targets"),
    (["table1", "--sample-period", "5"],
     "--sample-period applies to the scenario, degradation, and topology "
     "targets; add one of them"),
    (["table1", "--whatif-at", "10"],
     "--whatif-at/--whatif-base/--whatif-checkpoint apply to the whatif "
     "target; add 'whatif' to the targets"),
    (["table1", "--faults"],
     "fault flags apply to the scenario and degradation targets only; "
     "add one of ['scenario', 'degradation', 'whatif']"),
]


def assert_usage_error(cli_main, argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv)
    assert exit_info.value.code == 2
    assert f"error: {message}\n" in capsys.readouterr().err


class TestCrossFlagErrors:
    @pytest.mark.parametrize("argv,message", RUNNER_USAGE_ERRORS,
                             ids=[m for _, m in RUNNER_USAGE_ERRORS])
    def test_runner(self, argv, message, capsys):
        from repro.experiments.runner import main as runner_main

        assert_usage_error(runner_main, argv, message, capsys)

    @pytest.mark.parametrize("argv,message", SWEEP_USAGE_ERRORS,
                             ids=[" ".join(a) for a, _ in SWEEP_USAGE_ERRORS])
    def test_sweep(self, argv, message, capsys):
        assert_usage_error(main, argv, message, capsys)


# An out-of-range value is a usage error carrying its validator's
# message, raised before any run starts (nothing reaches stdout).
RUNNER_VALUE_ERRORS = [
    (["--sample-period", "0"], "--sample-period must be > 0"),
    (["--window", "0"], "--window must be > 0"),
    (["--mtbf", "-1"], "mtbf_s must be positive (or None)"),
    (["--mttr", "0"], "mttr_s must be positive"),
    (["--nodes", "0"], "num_nodes must be positive"),
    (["--domains", "0"], "domains must be >= 1"),
    (["--health-rule", "bogus"],
     "unparseable health rule 'bogus'; expected '[severity:] metric <op> "
     "value [for N windows]' or '[severity:] absent(metric) [for N "
     "windows]'"),
    (["--trace", "9"], "trace index must be 1..5"),
    (["--scale", "0.7"],
     "scale=0.7 cannot be realized by stride subsampling (stride would "
     "be 1, i.e. the full trace); use scale <= 0.5 or scale == 1.0"),
]

SWEEP_VALUE_ERRORS = [
    (["scenario", "--sample-period", "0"], "--sample-period must be > 0"),
    (["figure1", "--scale", "0.7"],
     "scale=0.7 cannot be realized by stride subsampling (stride would "
     "be 1, i.e. the full trace); use scale <= 0.5 or scale == 1.0"),
]


def assert_rejected_before_run(cli_main, argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"error: {message}\n" in captured.err
    assert captured.out == ""


class TestValueErrors:
    @pytest.mark.parametrize("argv,message", RUNNER_VALUE_ERRORS,
                             ids=[" ".join(a) for a, _ in
                                  RUNNER_VALUE_ERRORS])
    def test_runner(self, argv, message, capsys):
        from repro.experiments.runner import main as runner_main

        assert_rejected_before_run(runner_main, argv, message, capsys)

    @pytest.mark.parametrize("argv,message", SWEEP_VALUE_ERRORS,
                             ids=[" ".join(a) for a, _ in
                                  SWEEP_VALUE_ERRORS])
    def test_sweep(self, argv, message, capsys):
        assert_rejected_before_run(main, argv, message, capsys)


class TestObsSessionFromArgs:
    def parse(self, *argv):
        from repro.experiments.runner import build_parser

        return build_parser().parse_args(list(argv))

    def test_no_obs_flag_no_session(self):
        from repro.experiments.runner import obs_session_from_args

        assert obs_session_from_args(self.parse(), "run") is None

    def test_window_alone_instruments_the_run(self):
        from repro.experiments.runner import obs_session_from_args

        session = obs_session_from_args(self.parse("--window", "30"), "run")
        assert session is not None
        assert session.window_s == 30.0
        assert session.run_label == "run"

    def test_stream_log_alone_instruments_the_run(self, tmp_path):
        from repro.experiments.runner import obs_session_from_args

        path = str(tmp_path / "events.jsonl")
        session = obs_session_from_args(self.parse(), "run",
                                        stream_log=path)
        assert session is not None
        assert not session.record_events
