"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.data.seqio import read_seq


@pytest.fixture
def workload(tmp_path):
    path = tmp_path / "reads.seq"
    rc = main(
        [
            "generate",
            "--pairs",
            "12",
            "--length",
            "60",
            "--error-rate",
            "0.04",
            "--seed",
            "3",
            "-o",
            str(path),
        ]
    )
    assert rc == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_metric_choices(self):
        args = build_parser().parse_args(["align", "-i", "x", "--metric", "affine2p"])
        assert args.metric == "affine2p"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["align", "-i", "x", "--metric", "hamming"])


def _describe_actions(parser: argparse.ArgumentParser) -> list[tuple]:
    """What parsing depends on, per argparse action: dest, option strings,
    default, type, choices, required, nargs and the action class."""
    rows = []
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            choices = tuple(sorted(choices))
        elif choices is not None:
            choices = tuple(choices)
        rows.append(
            (
                action.dest,
                tuple(action.option_strings),
                action.default,
                getattr(action.type, "__name__", action.type),
                choices,
                action.required,
                action.nargs,
                type(action).__name__,
            )
        )
    return sorted(rows, key=repr)


def _subcommand_parsers(parser: argparse.ArgumentParser, prefix: str = "") -> dict:
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                key = f"{prefix} {name}".strip()
                out[key] = sub
                out.update(_subcommand_parsers(sub, key))
    return out


# Every subcommand's parsed options, as (dest, option_strings, default,
# type, choices, required, nargs, action class); help wording is free to
# change, these are not.
PINNED_OPTIONS = {
    'align': [
        ('adaptive', ('--adaptive',), False, None, None, False, 0, '_StoreTrueAction'),
        ('gap_extend', ('--gap-extend',), 2, 'int', None, False, None, '_StoreAction'),
        ('gap_extend2', ('--gap-extend2',), 1, 'int', None, False, None, '_StoreAction'),
        ('gap_open', ('--gap-open',), 6, 'int', None, False, None, '_StoreAction'),
        ('gap_open2', ('--gap-open2',), 24, 'int', None, False, None, '_StoreAction'),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, False, 0, '_HelpAction'),
        ('input', ('-i', '--input'), None, None, None, True, None, '_StoreAction'),
        ('linear_space', ('--linear-space',), False, None, None, False, 0, '_StoreTrueAction'),
        ('metric', ('--metric',), 'affine', None, ('affine', 'edit', 'linear', 'affine2p'), False, None, '_StoreAction'),
        ('mismatch', ('--mismatch',), 4, 'int', None, False, None, '_StoreAction'),
        ('output', ('-o', '--output'), None, None, None, False, None, '_StoreAction'),
        ('score_only', ('--score-only',), False, None, None, False, 0, '_StoreTrueAction'),
    ],
    'bench': [
        ('bench_command', (), None, None, ('compare', 'run'), True, 'A...', '_SubParsersAction'),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, False, 0, '_HelpAction'),
    ],
    'bench compare': [
        ('baseline', ('--baseline',), 'BENCH_baseline.json', None, None, False, None, '_StoreAction'),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, False, 0, '_HelpAction'),
        ('ledger', ('--ledger',), 'BENCH_ledger.json', None, None, False, None, '_StoreAction'),
        ('max_drop', ('--max-drop',), 0.1, 'float', None, False, None, '_StoreAction'),
        ('max_rise', ('--max-rise',), 0.1, 'float', None, False, None, '_StoreAction'),
    ],
    'bench run': [
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, False, 0, '_HelpAction'),
        ('ledger', ('--ledger',), 'BENCH_ledger.json', None, None, False, None, '_StoreAction'),
        ('no_append', ('--no-append',), False, None, None, False, 0, '_StoreTrueAction'),
        ('profile', ('--profile',), 'quick', None, ('quick', 'full'), False, None, '_StoreAction'),
        ('scenario', ('--scenario',), None, None, None, False, None, '_AppendAction'),
    ],
    'campaign': [
        ('ablations', ('--ablations',), None, None, None, False, None, '_StoreAction'),
        ('baseline_shards', ('--baseline-shards',), 2, 'int', None, False, None, '_StoreAction'),
        ('dpus', ('--dpus',), 4, 'int', None, False, None, '_StoreAction'),
        ('events_out', ('--events-out',), None, None, None, False, None, '_StoreAction'),
        ('grid', ('--grid',), None, None, None, False, None, '_StoreAction'),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, False, 0, '_HelpAction'),
        ('length', ('--length',), 16, 'int', None, False, None, '_StoreAction'),
        ('max_edits', ('--max-edits',), 4, 'int', None, False, None, '_StoreAction'),
        ('pairs', ('--pairs',), 48, 'int', None, False, None, '_StoreAction'),
        ('pairs_per_round', ('--pairs-per-round',), 8, 'int', None, False, None, '_StoreAction'),
        ('report', ('--report',), None, None, None, False, None, '_StoreAction'),
        ('resume', ('--resume',), False, None, None, False, 0, '_StoreTrueAction'),
        ('seed', ('--seed',), 42, 'int', None, False, None, '_StoreAction'),
        ('serve_rate', ('--serve-rate',), 4000.0, 'float', None, False, None, '_StoreAction'),
        ('serve_requests', ('--serve-requests',), 24, 'int', None, False, None, '_StoreAction'),
        ('tasklets', ('--tasklets',), 2, 'int', None, False, None, '_StoreAction'),
        ('workers', ('--workers',), 0, 'int', None, False, None, '_StoreAction'),
    ],
    'fig1': [
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, False, 0, '_HelpAction'),
        ('json', ('--json',), None, None, None, False, None, '_StoreAction'),
        ('quick', ('--quick',), False, None, None, False, 0, '_StoreTrueAction'),
    ],
    'generate': [
        ('error_model', ('--error-model',), 'exact', None, ('exact', 'uniform', 'binomial'), False, None, '_StoreAction'),
        ('error_rate', ('--error-rate',), 0.02, 'float', None, False, None, '_StoreAction'),
        ('format', ('--format',), 'seq', None, ('seq', 'fasta'), False, None, '_StoreAction'),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, False, 0, '_HelpAction'),
        ('length', ('--length',), 100, 'int', None, False, None, '_StoreAction'),
        ('output', ('-o', '--output'), None, None, None, True, None, '_StoreAction'),
        ('pairs', ('--pairs',), 1000, 'int', None, False, None, '_StoreAction'),
        ('seed', ('--seed',), 0, 'int', None, False, None, '_StoreAction'),
    ],
    'loadgen': [
        ('breaker', ('--breaker',), False, None, None, False, 0, '_StoreTrueAction'),
        ('burst', ('--burst',), 8, 'int', None, False, None, '_StoreAction'),
        ('cache', ('--cache',), 0, 'int', None, False, None, '_StoreAction'),
        ('cache_policy', ('--cache-policy',), 'lru', None, ('lru', 'lfu'), False, None, '_StoreAction'),
        ('clients', ('--clients',), 4, 'int', None, False, None, '_StoreAction'),
        ('dpus', ('--dpus',), 4, 'int', None, False, None, '_StoreAction'),
        ('engine', ('--engine',), 'vector', None, ('scalar', 'vector'), False, None, '_StoreAction'),
        ('error_rate', ('--error-rate',), 0.05, 'float', None, False, None, '_StoreAction'),
        ('events_out', ('--events-out',), None, None, None, False, None, '_StoreAction'),
        ('fallback_threshold', ('--fallback-threshold',), None, 'float', None, False, None, '_StoreAction'),
        ('gap_extend', ('--gap-extend',), 2, 'int', None, False, None, '_StoreAction'),
        ('gap_extend2', ('--gap-extend2',), 1, 'int', None, False, None, '_StoreAction'),
        ('gap_open', ('--gap-open',), 6, 'int', None, False, None, '_StoreAction'),
        ('gap_open2', ('--gap-open2',), 24, 'int', None, False, None, '_StoreAction'),
        ('hedge', ('--hedge',), False, None, None, False, 0, '_StoreTrueAction'),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, False, 0, '_HelpAction'),
        ('kill_dpu', ('--kill-dpu',), None, 'int', None, False, None, '_StoreAction'),
        ('length', ('--length',), 16, 'int', None, False, None, '_StoreAction'),
        ('link_timeout', ('--link-timeout',), None, 'float', None, False, None, '_StoreAction'),
        ('max_batch_pairs', ('--max-batch-pairs',), 64, 'int', None, False, None, '_StoreAction'),
        ('max_edits', ('--max-edits',), 4, 'int', None, False, None, '_StoreAction'),
        ('max_queue_pairs', ('--max-queue-pairs',), 4096, 'int', None, False, None, '_StoreAction'),
        ('max_read_len', ('--max-read-len',), 100, 'int', None, False, None, '_StoreAction'),
        ('max_wait', ('--max-wait',), 0.001, 'float', None, False, None, '_StoreAction'),
        ('metric', ('--metric',), 'affine', None, ('affine', 'edit', 'linear', 'affine2p'), False, None, '_StoreAction'),
        ('metrics_out', ('--metrics-out',), None, None, None, False, None, '_StoreAction'),
        ('mismatch', ('--mismatch',), 4, 'int', None, False, None, '_StoreAction'),
        ('net_plan', ('--net-plan',), None, None, None, False, None, '_StoreAction'),
        ('pairs_per_request', ('--pairs-per-request',), 1, 'int', None, False, None, '_StoreAction'),
        ('pairs_per_round', ('--pairs-per-round',), None, 'int', None, False, None, '_StoreAction'),
        ('process', ('--process',), 'uniform', None, ('uniform', 'bursty', 'ramp'), False, None, '_StoreAction'),
        ('rate', ('--rate',), 2000.0, 'float', None, False, None, '_StoreAction'),
        ('rate_end', ('--rate-end',), None, 'float', None, False, None, '_StoreAction'),
        ('report', ('--report',), None, None, None, False, None, '_StoreAction'),
        ('requests', ('--requests',), 200, 'int', None, False, None, '_StoreAction'),
        ('seed', ('--seed',), 0, 'int', None, False, None, '_StoreAction'),
        ('shards', ('--shards',), 1, 'int', None, False, None, '_StoreAction'),
        ('slo_budget', ('--slo-budget',), 0.01, 'float', None, False, None, '_StoreAction'),
        ('slo_percentile', ('--slo-percentile',), 99.0, 'float', None, False, None, '_StoreAction'),
        ('slo_target', ('--slo-target',), None, 'float', None, False, None, '_StoreAction'),
        ('stall_dpu', ('--stall-dpu',), None, 'int', None, False, None, '_StoreAction'),
        ('tasklets', ('--tasklets',), 4, 'int', None, False, None, '_StoreAction'),
        ('trace_out', ('--trace-out',), None, None, None, False, None, '_StoreAction'),
        ('workers', ('--workers',), 1, 'int', None, False, None, '_StoreAction'),
    ],
    'map': [
        ('both_strands', ('--both-strands',), False, None, None, False, 0, '_StoreTrueAction'),
        ('gap_extend', ('--gap-extend',), 2, 'int', None, False, None, '_StoreAction'),
        ('gap_extend2', ('--gap-extend2',), 1, 'int', None, False, None, '_StoreAction'),
        ('gap_open', ('--gap-open',), 6, 'int', None, False, None, '_StoreAction'),
        ('gap_open2', ('--gap-open2',), 24, 'int', None, False, None, '_StoreAction'),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, False, 0, '_HelpAction'),
        ('metric', ('--metric',), 'affine', None, ('affine', 'edit', 'linear', 'affine2p'), False, None, '_StoreAction'),
        ('mismatch', ('--mismatch',), 4, 'int', None, False, None, '_StoreAction'),
        ('output', ('-o', '--output'), None, None, None, True, None, '_StoreAction'),
        ('reads', ('--reads',), None, None, None, True, None, '_StoreAction'),
        ('reference', ('--reference',), None, None, None, True, None, '_StoreAction'),
    ],
    'pim-align': [
        ('breaker', ('--breaker',), False, None, None, False, 0, '_StoreTrueAction'),
        ('dpus', ('--dpus',), 64, 'int', None, False, None, '_StoreAction'),
        ('engine', ('--engine',), 'vector', None, ('scalar', 'vector'), False, None, '_StoreAction'),
        ('gap_extend', ('--gap-extend',), 2, 'int', None, False, None, '_StoreAction'),
        ('gap_extend2', ('--gap-extend2',), 1, 'int', None, False, None, '_StoreAction'),
        ('gap_open', ('--gap-open',), 6, 'int', None, False, None, '_StoreAction'),
        ('gap_open2', ('--gap-open2',), 24, 'int', None, False, None, '_StoreAction'),
        ('hedge', ('--hedge',), False, None, None, False, 0, '_StoreTrueAction'),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, False, 0, '_HelpAction'),
        ('input', ('-i', '--input'), None, None, None, True, None, '_StoreAction'),
        ('journal', ('--journal',), None, None, None, False, None, '_StoreAction'),
        ('kill_dpu', ('--kill-dpu',), None, 'int', None, False, None, '_StoreAction'),
        ('link_timeout', ('--link-timeout',), None, 'float', None, False, None, '_StoreAction'),
        ('max_edits', ('--max-edits',), None, 'int', None, False, None, '_StoreAction'),
        ('metric', ('--metric',), 'affine', None, ('affine', 'edit', 'linear', 'affine2p'), False, None, '_StoreAction'),
        ('metrics_out', ('--metrics-out',), None, None, None, False, None, '_StoreAction'),
        ('mismatch', ('--mismatch',), 4, 'int', None, False, None, '_StoreAction'),
        ('net_plan', ('--net-plan',), None, None, None, False, None, '_StoreAction'),
        ('output', ('-o', '--output'), None, None, None, False, None, '_StoreAction'),
        ('pairs_per_round', ('--pairs-per-round',), None, 'int', None, False, None, '_StoreAction'),
        ('policy', ('--policy',), 'mram', None, ('mram', 'wram'), False, None, '_StoreAction'),
        ('resume', ('--resume',), False, None, None, False, 0, '_StoreTrueAction'),
        ('shard_workers', ('--shard-workers',), 1, 'int', None, False, None, '_StoreAction'),
        ('shards', ('--shards',), 1, 'int', None, False, None, '_StoreAction'),
        ('stall_dpu', ('--stall-dpu',), None, 'int', None, False, None, '_StoreAction'),
        ('tasklets', ('--tasklets',), 16, 'int', None, False, None, '_StoreAction'),
        ('trace_out', ('--trace-out',), None, None, None, False, None, '_StoreAction'),
        ('workers', ('--workers',), 1, 'int', None, False, None, '_StoreAction'),
    ],
    'qa': [
        ('dpus', ('--dpus',), 4, 'int', None, False, None, '_StoreAction'),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, False, 0, '_HelpAction'),
        ('kill_dpu', ('--kill-dpu',), None, 'int', None, False, None, '_StoreAction'),
        ('max_edits', ('--max-edits',), 4, 'int', None, False, None, '_StoreAction'),
        ('max_len', ('--max-len',), 32, 'int', None, False, None, '_StoreAction'),
        ('no_shrink', ('--no-shrink',), False, None, None, False, 0, '_StoreTrueAction'),
        ('report', ('--report',), None, None, None, False, None, '_StoreAction'),
        ('seed', ('--seed',), 42, 'int', None, False, None, '_StoreAction'),
        ('shard_workers', ('--shard-workers',), 1, 'int', None, False, None, '_StoreAction'),
        ('shards', ('--shards',), 1, 'int', None, False, None, '_StoreAction'),
        ('tasklets', ('--tasklets',), 4, 'int', None, False, None, '_StoreAction'),
        ('trials', ('--trials',), 200, 'int', None, False, None, '_StoreAction'),
        ('workers', ('--workers',), 1, 'int', None, False, None, '_StoreAction'),
    ],
    'serve': [
        ('breaker', ('--breaker',), False, None, None, False, 0, '_StoreTrueAction'),
        ('cache', ('--cache',), 0, 'int', None, False, None, '_StoreAction'),
        ('cache_policy', ('--cache-policy',), 'lru', None, ('lru', 'lfu'), False, None, '_StoreAction'),
        ('dpus', ('--dpus',), 4, 'int', None, False, None, '_StoreAction'),
        ('engine', ('--engine',), 'vector', None, ('scalar', 'vector'), False, None, '_StoreAction'),
        ('fallback_threshold', ('--fallback-threshold',), None, 'float', None, False, None, '_StoreAction'),
        ('gap_extend', ('--gap-extend',), 2, 'int', None, False, None, '_StoreAction'),
        ('gap_extend2', ('--gap-extend2',), 1, 'int', None, False, None, '_StoreAction'),
        ('gap_open', ('--gap-open',), 6, 'int', None, False, None, '_StoreAction'),
        ('gap_open2', ('--gap-open2',), 24, 'int', None, False, None, '_StoreAction'),
        ('hedge', ('--hedge',), False, None, None, False, 0, '_StoreTrueAction'),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, False, 0, '_HelpAction'),
        ('input', ('-i', '--input'), None, None, None, False, None, '_StoreAction'),
        ('kill_dpu', ('--kill-dpu',), None, 'int', None, False, None, '_StoreAction'),
        ('link_timeout', ('--link-timeout',), None, 'float', None, False, None, '_StoreAction'),
        ('max_batch_pairs', ('--max-batch-pairs',), 64, 'int', None, False, None, '_StoreAction'),
        ('max_edits', ('--max-edits',), 4, 'int', None, False, None, '_StoreAction'),
        ('max_queue_pairs', ('--max-queue-pairs',), 4096, 'int', None, False, None, '_StoreAction'),
        ('max_read_len', ('--max-read-len',), 100, 'int', None, False, None, '_StoreAction'),
        ('max_wait', ('--max-wait',), 0.001, 'float', None, False, None, '_StoreAction'),
        ('metric', ('--metric',), 'affine', None, ('affine', 'edit', 'linear', 'affine2p'), False, None, '_StoreAction'),
        ('metrics_out', ('--metrics-out',), None, None, None, False, None, '_StoreAction'),
        ('mismatch', ('--mismatch',), 4, 'int', None, False, None, '_StoreAction'),
        ('net_plan', ('--net-plan',), None, None, None, False, None, '_StoreAction'),
        ('output', ('-o', '--output'), None, None, None, False, None, '_StoreAction'),
        ('pairs_per_round', ('--pairs-per-round',), None, 'int', None, False, None, '_StoreAction'),
        ('shards', ('--shards',), 1, 'int', None, False, None, '_StoreAction'),
        ('stall_dpu', ('--stall-dpu',), None, 'int', None, False, None, '_StoreAction'),
        ('tasklets', ('--tasklets',), 4, 'int', None, False, None, '_StoreAction'),
        ('workers', ('--workers',), 1, 'int', None, False, None, '_StoreAction'),
    ],
    'stats': [
        ('adaptive', ('--adaptive',), False, None, None, False, 0, '_StoreTrueAction'),
        ('gap_extend', ('--gap-extend',), 2, 'int', None, False, None, '_StoreAction'),
        ('gap_extend2', ('--gap-extend2',), 1, 'int', None, False, None, '_StoreAction'),
        ('gap_open', ('--gap-open',), 6, 'int', None, False, None, '_StoreAction'),
        ('gap_open2', ('--gap-open2',), 24, 'int', None, False, None, '_StoreAction'),
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, False, 0, '_HelpAction'),
        ('input', ('-i', '--input'), None, None, None, True, None, '_StoreAction'),
        ('metric', ('--metric',), 'affine', None, ('affine', 'edit', 'linear', 'affine2p'), False, None, '_StoreAction'),
        ('mismatch', ('--mismatch',), 4, 'int', None, False, None, '_StoreAction'),
    ],
    'sweep': [
        ('help', ('-h', '--help'), '==SUPPRESS==', None, None, False, 0, '_HelpAction'),
        ('which', (), None, None, ('tasklets', 'allocator', 'error-rate', 'read-length', 'dpus', 'algos', 'staging', 'sensitivity'), True, None, '_StoreAction'),
    ],
}


class TestParsedOptions:
    def test_subcommands_pinned(self):
        assert sorted(_subcommand_parsers(build_parser())) == sorted(PINNED_OPTIONS)

    @pytest.mark.parametrize("command", sorted(PINNED_OPTIONS))
    def test_options_pinned(self, command):
        parser = _subcommand_parsers(build_parser())[command]
        assert _describe_actions(parser) == PINNED_OPTIONS[command]


class TestGenerate:
    def test_writes_seq(self, workload):
        pairs = read_seq(workload)
        assert len(pairs) == 12
        assert all(len(p.pattern) == 60 for p in pairs)

    def test_writes_fasta(self, tmp_path, capsys):
        path = tmp_path / "reads.fa"
        rc = main(
            ["generate", "--pairs", "3", "--length", "20", "--format", "fasta",
             "-o", str(path)]
        )
        assert rc == 0
        assert path.read_text().startswith(">pair0/1")
        assert "wrote 3 pairs" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.seq"
        b = tmp_path / "b.seq"
        for p in (a, b):
            main(["generate", "--pairs", "5", "--seed", "9", "-o", str(p)])
        assert a.read_text() == b.read_text()


class TestAlign:
    def test_stdout_tsv(self, workload, capsys):
        rc = main(["align", "-i", str(workload)])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "pair\tscore\tcigar"
        assert len(lines) == 13
        idx, score, cigar = lines[1].split("\t")
        assert idx == "0" and int(score) >= 0 and cigar != "."

    def test_score_only(self, workload, capsys):
        rc = main(["align", "-i", str(workload), "--score-only"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.split("\t")[2] == "." for line in lines[1:])

    def test_output_file(self, workload, tmp_path, capsys):
        out = tmp_path / "result.tsv"
        rc = main(["align", "-i", str(workload), "-o", str(out)])
        assert rc == 0
        assert out.read_text().startswith("pair\tscore")
        assert "aligned 12 pairs" in capsys.readouterr().out

    def test_edit_metric_scores(self, workload, capsys):
        rc = main(["align", "-i", str(workload), "--metric", "edit"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        # edit budget is 0.04 * 60 ~ 2 edits per pair
        assert all(int(line.split("\t")[1]) <= 3 for line in lines)

    def test_linear_space_matches_default(self, workload, capsys):
        rc = main(["align", "-i", str(workload)])
        assert rc == 0
        default_scores = [
            line.split("\t")[1]
            for line in capsys.readouterr().out.strip().splitlines()[1:]
        ]
        rc = main(["align", "-i", str(workload), "--linear-space"])
        assert rc == 0
        linear_scores = [
            line.split("\t")[1]
            for line in capsys.readouterr().out.strip().splitlines()[1:]
        ]
        assert linear_scores == default_scores

    def test_linear_space_rejects_affine2p(self, workload, capsys):
        rc = main(
            ["align", "-i", str(workload), "--linear-space", "--metric", "affine2p"]
        )
        assert rc == 1
        assert "linear-space" in capsys.readouterr().err

    def test_missing_input_is_clean_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.seq"
        with pytest.raises(FileNotFoundError):
            main(["align", "-i", str(missing)])


class TestPimAlign:
    def test_runs_and_reports(self, workload, capsys):
        rc = main(
            ["pim-align", "-i", str(workload), "--dpus", "4", "--tasklets", "4",
             "--max-edits", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated PIM run" in out
        assert "kernel" in out
        assert "throughput" in out

    def test_wram_policy(self, workload, capsys):
        rc = main(
            ["pim-align", "-i", str(workload), "--dpus", "2", "--tasklets", "2",
             "--policy", "wram", "--max-edits", "3"]
        )
        assert rc == 0
        assert "wram" in capsys.readouterr().out

    def test_reproerror_becomes_exit_code(self, workload, capsys):
        # 24 tasklets under the wram policy cannot be admitted -> clean error
        rc = main(
            ["pim-align", "-i", str(workload), "--dpus", "2", "--tasklets", "24",
             "--policy", "wram", "--max-edits", "6"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.seq"
        empty.write_text("")
        rc = main(["pim-align", "-i", str(empty)])
        assert rc == 1


class TestPimAlignTelemetry:
    def _run(self, workload, tmp_path, *extra):
        return main(
            ["pim-align", "-i", str(workload), "--dpus", "4", "--tasklets", "2",
             "--max-edits", "3", *extra]
        )

    def test_trace_out_is_valid_chrome_trace(self, workload, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        trace = tmp_path / "trace.json"
        rc = self._run(workload, tmp_path, "--trace-out", str(trace))
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) > 0
        # per-DPU processes and tasklet lanes made it into the export
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1, 2, 3, 4}  # host + 4 DPUs
        out = capsys.readouterr().out
        assert "wrote Chrome trace" in out
        assert "telemetry reconciled" in out

    def test_metrics_out_json(self, workload, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        rc = self._run(workload, tmp_path, "--metrics-out", str(path))
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.obs/v1"
        assert doc["runs"][0]["num_pairs"] == 12
        assert "wrote metrics" in capsys.readouterr().out

    def test_metrics_out_prometheus(self, workload, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        rc = self._run(workload, tmp_path, "--metrics-out", str(path))
        assert rc == 0
        text = path.read_text()
        assert "# TYPE pim_runs_total counter" in text
        assert 'pim_pairs_total{kind="align"} 12' in text

    def test_metrics_out_jsonl_manifest(self, workload, tmp_path, capsys):
        import json

        path = tmp_path / "runs.jsonl"
        rc = self._run(workload, tmp_path, "--metrics-out", str(path))
        assert rc == 0
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "run"
        assert lines[-1]["type"] == "summary"

    def test_both_flags_with_workers(self, workload, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = self._run(
            workload, tmp_path, "--workers", "2",
            "--metrics-out", str(metrics), "--trace-out", str(trace),
        )
        assert rc == 0
        assert validate_chrome_trace(json.loads(trace.read_text())) > 0
        assert json.loads(metrics.read_text())["schema"] == "repro.obs/v1"

    def test_no_flags_no_telemetry_output(self, workload, tmp_path, capsys):
        rc = self._run(workload, tmp_path)
        assert rc == 0
        assert "telemetry" not in capsys.readouterr().out


class TestMap:
    @pytest.fixture
    def mapping_files(self, tmp_path):
        from repro.data.simulator import ReferenceSampler
        from repro.data.seqio import write_fasta

        sampler = ReferenceSampler(
            seed=13, reference_length=3000, read_length=60, error_rate=0.02
        )
        ref = tmp_path / "ref.fa"
        write_fasta(ref, [("contig1", sampler.reference)])
        reads = sampler.reads(6)
        reads_fa = tmp_path / "reads.fa"
        write_fasta(
            reads_fa,
            [(f"read{i}", r.sequence) for i, r in enumerate(reads)],
        )
        return ref, reads_fa, sampler, reads

    def test_maps_reads_to_paf(self, mapping_files, tmp_path, capsys):
        from repro.data.paf import read_paf

        ref, reads_fa, sampler, reads = mapping_files
        out = tmp_path / "out.paf"
        rc = main(
            ["map", "--reference", str(ref), "--reads", str(reads_fa),
             "--both-strands", "-o", str(out)]
        )
        assert rc == 0
        records = read_paf(out)
        assert len(records) == 6
        hits = 0
        for rec, read in zip(records, reads):
            assert rec.target_name == "contig1"
            if abs(rec.target_start - read.position) <= sampler.edit_budget + 1:
                hits += 1
            assert (rec.strand == "-") == read.reverse
        assert hits == 6

    def test_multi_record_reference_rejected(self, mapping_files, tmp_path, capsys):
        from repro.data.seqio import write_fasta

        _ref, reads_fa, _sampler, _reads = mapping_files
        bad_ref = tmp_path / "multi.fa"
        write_fasta(bad_ref, [("a", "ACGT"), ("b", "ACGT")])
        rc = main(
            ["map", "--reference", str(bad_ref), "--reads", str(reads_fa),
             "-o", str(tmp_path / "x.paf")]
        )
        assert rc == 1
        assert "exactly one" in capsys.readouterr().err

    def test_empty_reads_rejected(self, mapping_files, tmp_path, capsys):
        ref, _reads, _sampler, _r = mapping_files
        empty = tmp_path / "none.fa"
        empty.write_text("")
        rc = main(
            ["map", "--reference", str(ref), "--reads", str(empty),
             "-o", str(tmp_path / "x.paf")]
        )
        assert rc == 1


class TestStats:
    def test_stats_report(self, workload, capsys):
        rc = main(["stats", "-i", str(workload)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scores" in out and "identities" in out

    def test_stats_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "none.seq"
        empty.write_text("")
        rc = main(["stats", "-i", str(empty)])
        assert rc == 1


class TestSweep:
    def test_allocator_sweep_runs(self, capsys):
        rc = main(["sweep", "allocator"])
        assert rc == 0
        assert "allocator policy ablation" in capsys.readouterr().out
