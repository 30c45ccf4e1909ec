import argparse
import csv
import io
import json
import os
import random
import re
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopgraph import (
    Modularity,
    MyersonModel,
    Partition,
    alpha_sweep,
    better_response,
    component_characteristic,
    load_dataset,
    nash_stable,
    potential,
)
from coopgraph.cli import build_parser, cli_dispatch
from coopgraph.datasets import karate_split_15_19
from coopgraph.reports import (
    format_rational,
    parse_rational,
    partition_to_json,
    partition_from_json,
    partition_from_obj,
    partition_to_obj,
    sweep_to_csv,
    trace_to_obj,
)


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def karate_partition_files(tmp_path):
    karate = load_dataset("karate")
    grand = tmp_path / "grand.json"
    grand.write_text(partition_to_json(Partition.grand(karate.labels)))
    split = tmp_path / "s15s19.json"
    split.write_text(partition_to_json(karate_split_15_19()))
    return grand, split


class TestRationals:
    def test_format(self):
        assert format_rational(Fraction(2, 57)) == "2/57"
        assert format_rational(Fraction(4)) == "4"
        assert format_rational(-3) == "-3"
        assert format_rational("2/4") == "1/2"

    @pytest.mark.parametrize("bad", [0.1, 0.5, True, "0.5", "1e-3"])
    def test_format_refuses_floats_bools_and_decimal_text(self, bad):
        # Fraction() alone would print 0.1 as 3602879701896397/36028797018963968
        # and read "0.5" as 1/2.
        with pytest.raises(ValueError, match="rational must be"):
            format_rational(bad)

    def test_parse(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("7") == 7
        assert parse_rational("-1/2") == Fraction(-1, 2)

    @pytest.mark.parametrize("text", ["\uff13", "1/\uff12"], ids=["fullwidth", "fullwidth-denominator"])
    def test_ascii_digits_only(self, text):
        # Fraction() alone would read the first as 3.
        with pytest.raises(ValueError, match="expected a rational"):
            parse_rational(text)

    def test_floats_rejected(self):
        for bad in ("0.5", "1e-3", "a/b", "3/0", ""):
            with pytest.raises(ValueError):
                parse_rational(bad)


class TestPartitionJson:
    def test_round_trip(self):
        p = Partition([{"B", "A"}, {"C"}])
        text = partition_to_json(p)
        assert json.loads(text) == {"blocks": [["A", "B"], ["C"]]}
        assert partition_from_json(text) == p

    def test_universe_validated(self):
        with pytest.raises(ValueError):
            partition_from_json('{"blocks": [["A"]]}', universe={"A", "B"})

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.text(max_size=4), min_size=1, max_size=10, unique=True), st.data())
    def test_round_trip_property(self, labels, data):
        blocks: dict[int, list[str]] = {}
        for label in labels:
            blocks.setdefault(data.draw(st.integers(0, len(labels) - 1)), []).append(label)
        p = Partition(blocks.values())
        text = partition_to_json(p)
        q = partition_from_json(text, universe=labels)
        assert q == p
        assert partition_to_json(q) == text

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="blocks"):
            partition_from_json('{"nope": 1}')

    @pytest.mark.parametrize("blocks", [[["A"], "B"], "AB", [["A"], {"B": 1}]], ids=["string", "not-a-list", "object"])
    def test_blocks_must_be_lists(self, blocks):
        with pytest.raises(ValueError, match="'blocks' must be a list of lists"):
            partition_from_obj({"blocks": blocks})


class TestThresholdCommand:
    def test_karate_cutoff(self, capsys, karate_partition_files):
        grand, split = karate_partition_files
        code, out, _ = run(
            capsys, "threshold", "--graph", "karate", "--p1", str(grand), "--p2", str(split)
        )
        assert code == 0
        assert out == "2/57\n"

    def test_identical_partitions(self, capsys, karate_partition_files):
        grand, _ = karate_partition_files
        code, out, err = run(
            capsys, "threshold", "--graph", "karate", "--p1", str(grand), "--p2", str(grand)
        )
        assert code == 0
        assert out == "none\n"
        assert "identical" in err


class TestPartitionCommand:
    def test_hedonic_example1_round_robin(self, capsys):
        # First-improving round robin from singletons glues everything to
        # the first block: the grand coalition, a Nash-stable local
        # optimum at alpha = 1/5.
        code, out, _ = run(
            capsys,
            "partition", "hedonic",
            "--graph", "example1",
            "--alpha", "1/5",
            "--init", "singletons",
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "Stable"
        assert report["partition"]["blocks"] == [["A", "B", "C", "D", "E", "F"]]
        assert report["stability"]["nash_stable"] is True
        assert report["potential"]["intercept"] == "7"
        assert report["potential"]["slope"] == "-15"

    def test_hedonic_example1_greedy_finds_split(self, capsys):
        code, out, _ = run(
            capsys,
            "partition", "hedonic",
            "--graph", "example1",
            "--alpha", "1/5",
            "--init", "singletons",
            "--schedule", "greedy",
        )
        assert code == 0
        report = json.loads(out)
        assert report["partition"]["blocks"] == [["A", "B", "C"], ["D", "E", "F"]]
        assert report["stability"]["nash_stable"] is True
        assert report["potential"]["intercept"] == "6"
        assert report["potential"]["slope"] == "-6"

    def test_model_flags_are_exclusive(self, capsys):
        code, _, err = run(
            capsys, "partition", "hedonic", "--graph", "example1",
            "--alpha", "1/5", "--modularity",
        )
        assert code == 2
        assert "exactly one" in err

    def test_modularity_run(self, capsys):
        code, out, _ = run(
            capsys,
            "partition", "hedonic",
            "--graph", "example1",
            "--modularity",
            "--init", "singletons",
        )
        assert code == 0
        report = json.loads(out)
        assert report["model"] == {"kind": "modularity", "gamma": "1", "beta": "1"}
        assert report["stability"]["nash_stable"] is True
        # The defaults are --gamma 1 --beta uniform:1.
        code, out, _ = run(
            capsys,
            "partition", "hedonic", "--graph", "example1", "--modularity",
            "--init", "singletons", "--gamma", "1", "--beta", "uniform:1",
        )
        assert code == 0
        explicit = json.loads(out)
        for r in (report, explicit):
            r.pop("timing_seconds")
        assert explicit == report

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--gamma", "3"], "--gamma applies to --modularity only"),
            (["--beta", "degree-norm"], "--beta applies to --modularity only"),
            (["--gamma", "1", "--beta", "uniform:1"], "--gamma applies to --modularity only"),
        ],
        ids=["gamma", "beta", "both-defaults"],
    )
    def test_modularity_parameters_are_refused_with_alpha(self, capsys, flags, named):
        code, out, err = run(capsys, "partition", "hedonic", "--graph", "example1", "--alpha", "1/5", *flags)
        assert code == 2
        assert out == ""
        assert named in err

    def test_degree_normalized_modularity_run_matches_the_library(self, capsys):
        code, out, _ = run(
            capsys, "partition", "hedonic", "--graph", "karate", "--modularity",
            "--gamma", "1/2", "--beta", "degree-norm",
        )
        assert code == 0
        report = json.loads(out)
        assert report["model"] == {"kind": "modularity", "gamma": "1/2", "beta": "degree-normalized"}
        g = load_dataset("karate")
        vf = Modularity(Fraction(1, 2), beta=None)
        final, trace = better_response(vf, g, Partition.singletons(g.labels))
        assert report["partition"] == partition_to_obj(final)
        assert (report["status"], report["trace"]) == (trace.status, trace_to_obj(trace))
        assert report["stability"] == {"nash_stable": True, "witness": None}
        assert nash_stable(vf, g, final) == (True, None)
        assert report["potential"] == {"value": format_rational(potential(vf, g, final).value)}

    def test_reports_reproducible_except_timing(self, capsys, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code, _, _ = run(
                capsys,
                "partition", "hedonic",
                "--graph", "karate",
                "--alpha", "1/20",
                "--init", "grand",
                "--seed", "7",
                "--out", str(path),
            )
            assert code == 0
            outs.append(json.loads(path.read_text()))
        for report in outs:
            report.pop("timing_seconds")
        assert outs[0] == outs[1]

    def test_myerson_run(self, capsys, tmp_path):
        start = tmp_path / "split.json"
        g = load_dataset("example1")
        start.write_text(partition_to_json(Partition([{"A", "B", "C"}, {"D", "E", "F"}])))
        code, out, _ = run(
            capsys,
            "partition", "myerson",
            "--graph", "example1",
            "--r", "7/8",
            "--init", str(start),
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "Stable"
        assert report["partition"]["blocks"] == [["A", "B", "C", "D", "E", "F"]]
        assert [step["node"] for step in report["trace"]] == ["A", "B", "C"]
        assert report["stability"]["nash_stable"] is True
        assert report["stability"]["externally_stable"] is True

    def test_myerson_run_binds_one_model(self, capsys, monkeypatch):
        # The run and both verifiers share one model, so the verifiers
        # read the tables the run already built.
        bound = []
        bind = MyersonModel.bind.__func__
        monkeypatch.setattr(
            MyersonModel, "bind", classmethod(lambda cls, g, r: bound.append(r) or bind(cls, g, r))
        )
        code, out, _ = run(capsys, "partition", "myerson", "--graph", "example1", "--r", "1/2")
        assert code == 0
        assert json.loads(out)["stability"]["nash_stable"] is True
        assert bound == [Fraction(1, 2)]

    def test_myerson_report_allocations_run_after_the_model_is_released(self, capsys, monkeypatch):
        # The allocations build tables of their own, so the model's
        # tables of the same blocks must be gone by then.
        import coopgraph.cli as cli

        models = []
        bind = MyersonModel.bind.__func__

        def bound(cls, g, r):
            model = bind(cls, g, r)
            models.append(weakref.ref(model))
            return model

        alive = []
        allocate = cli.myerson_allocation

        def allocation(g, block):
            alive.append(models[0]() is not None)
            return allocate(g, block)

        monkeypatch.setattr(MyersonModel, "bind", classmethod(bound))
        monkeypatch.setattr(cli, "myerson_allocation", allocation)
        code, _, _ = run(capsys, "partition", "myerson", "--graph", "example1", "--r", "1/2")
        assert code == 0
        assert alive == [False, False]

    def test_myerson_cycle_key_tells_comma_labels_apart(self, capsys, tmp_path):
        # The start and the partition after the first greedy move,
        # {a, b,c | b, c} and {a, b, c | b,c}, would share one cycle key
        # if labels were joined unescaped; the run would then stop
        # CycleDetected after one move.
        graph = tmp_path / "comma.edges"
        graph.write_text("a b 2\nb c 2\nb b,c 2\n")
        start = tmp_path / "start.json"
        start.write_text(partition_to_json(Partition([{"a", "b,c"}, {"b", "c"}])))
        code, out, _ = run(
            capsys, "partition", "myerson", "--graph", str(graph), "--r", "1/4",
            "--schedule", "greedy", "--init", str(start),
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "Stable"
        assert len(report["trace"]) == 2
        assert report["partition"] == {"blocks": [["a", "b", "b,c", "c"]]}

    @pytest.mark.parametrize(
        "argv", [("hedonic", "--alpha", "1/5"), ("myerson", "--r", "1/2")], ids=["hedonic", "myerson"]
    )
    def test_graph_without_nodes_starts_alike_from_grand_and_singletons(self, capsys, tmp_path, argv):
        graph = tmp_path / "comments.edges"
        graph.write_text("# no edges\n")
        outs = []
        for init in ("grand", "singletons"):
            code, out, err = run(capsys, "partition", *argv, "--graph", str(graph), "--init", init)
            assert code == 0, err
            outs.append(re.sub(r'"timing_seconds": [0-9.e-]+', "", out))
        assert outs[0] == outs[1]
        assert '"blocks": []' in outs[0]

    def test_bad_rational_exits_2(self, capsys):
        code, _, err = run(
            capsys, "partition", "hedonic", "--graph", "example1", "--alpha", "0.2"
        )
        assert code == 2
        assert "rational" in err


class TestMyersonValueCommand:
    def test_coalition_value(self, capsys):
        code, out, _ = run(
            capsys,
            "myerson", "value",
            "--graph", "example1",
            "--coalition", "A,D,E,F",
            "--r", "1/2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"]["poly"] == ["0", "5", "2"]
        assert payload["allocation"]["A"]["poly"] == ["0", "1/2", "2/3"]
        assert payload["allocation"]["A"]["str"] == "1/2 r + 2/3 r^2"
        assert payload["allocation_at_r"]["A"] == "5/12"
        assert payload["value_at_r"] == "3"

    @pytest.mark.parametrize("name", ["example1", "example2", "karate"])
    def test_the_value_is_the_coalitions_worth(self, capsys, name):
        # The command sums the allocation, which per component of the
        # coalition's subgraph is the component's worth.
        g = load_dataset(name)
        rng = random.Random(name)
        for _ in range(20):
            coalition = rng.sample(g.labels, rng.randint(1, g.n))
            code, out, _ = run(capsys, "myerson", "value", "--graph", name, "--coalition", ",".join(coalition))
            assert code == 0
            want = component_characteristic(g, coalition)
            assert json.loads(out)["value"] == {"poly": want.power_strings(), "str": str(want)}

    def test_unknown_node_exits_2(self, capsys):
        code, _, err = run(
            capsys, "myerson", "value", "--graph", "example1", "--coalition", "A,Q"
        )
        assert code == 2
        assert "Q" in err

    def test_repeated_node_exits_2(self, capsys):
        code, out, err = run(
            capsys, "myerson", "value", "--graph", "example1", "--coalition", "A,B,C,B"
        )
        assert code == 2
        assert out == ""
        assert "'B'" in err

    def test_escaped_comma_names_a_label(self, capsys, tmp_path):
        graph = tmp_path / "comma.edges"
        graph.write_text("a,b c\nc d\n")
        value = ("myerson", "value", "--graph", str(graph), "--coalition")
        code, out, _ = run(capsys, *value, "a\\,b,c")
        assert code == 0
        payload = json.loads(out)
        assert payload["coalition"] == ["a,b", "c"]
        assert payload["value"]["poly"] == ["0", "1"]
        # Unescaped, the comma still separates labels.
        code, _, err = run(capsys, *value, "a,b,c")
        assert code == 2
        assert "'a'" in err
        # An empty label is refused, next to an escaped comma or not.
        for coalition in ("c,,d", ",c", "c,", "a\\,b,,c", "a\\,b,", ",a\\,b"):
            code, out, err = run(capsys, *value, coalition)
            assert (code, out) == (2, "")
            assert "nonempty labels" in err


class TestStabilityCommand:
    def test_hedonic_stable(self, capsys, tmp_path):
        g = load_dataset("example1")
        path = tmp_path / "split.json"
        path.write_text(partition_to_json(Partition([{"A", "B", "C"}, {"D", "E", "F"}])))
        code, out, _ = run(
            capsys,
            "stability", "--graph", "example1", "--partition", str(path),
            "--model", "hedonic", "--alpha", "1/5",
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict == {
            "model": "hedonic",
            "alpha": "1/5",
            "check": "nash",
            "stable": True,
            "witness": None,
        }

    def test_hedonic_witness(self, capsys, tmp_path):
        path = tmp_path / "grand.json"
        g = load_dataset("example1")
        path.write_text(partition_to_json(Partition.grand(g.labels)))
        code, out, _ = run(
            capsys,
            "stability", "--graph", "example1", "--partition", str(path),
            "--model", "hedonic", "--alpha", "1/2",
        )
        verdict = json.loads(out)
        assert verdict["stable"] is False
        assert verdict["witness"] == {"node": "B", "from": 0, "to": "fresh"}

    def test_myerson_external(self, capsys, tmp_path):
        path = tmp_path / "split.json"
        path.write_text(
            partition_to_json(Partition([{"A", "B", "C"}, {"D", "E", "F"}]))
        )
        code, out, _ = run(
            capsys,
            "stability", "--graph", "example1", "--partition", str(path),
            "--model", "myerson", "--r", "1/2", "--external",
        )
        verdict = json.loads(out)
        assert verdict["check"] == "external"
        assert verdict["stable"] is True

    def test_missing_parameter_exits_2(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        g = load_dataset("example1")
        path.write_text(partition_to_json(Partition.grand(g.labels)))
        code, _, err = run(
            capsys,
            "stability", "--graph", "example1", "--partition", str(path),
            "--model", "hedonic",
        )
        assert code == 2
        assert "--alpha" in err

    def test_myerson_without_r_exits_2(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        g = load_dataset("example1")
        path.write_text(partition_to_json(Partition.grand(g.labels)))
        code, out, err = run(
            capsys,
            "stability", "--graph", "example1", "--partition", str(path),
            "--model", "myerson",
        )
        assert (code, out) == (2, "")
        assert "--model myerson needs --r p/q" in err

    def test_external_rejected_for_hedonic(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        g = load_dataset("example1")
        path.write_text(partition_to_json(Partition.grand(g.labels)))
        code, _, err = run(
            capsys,
            "stability", "--graph", "example1", "--partition", str(path),
            "--model", "hedonic", "--alpha", "1/5", "--external",
        )
        assert code == 2
        assert "myerson" in err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--model", "myerson", "--r", "1/2", "--alpha", "1/3"], "--alpha applies to the hedonic model only"),
            (["--model", "hedonic", "--alpha", "1/2", "--r", "1/3"], "--r applies to the myerson model only"),
        ],
        ids=["alpha-for-myerson", "r-for-hedonic"],
    )
    def test_the_other_models_parameter_is_refused(self, capsys, tmp_path, flags, named):
        path = tmp_path / "p.json"
        g = load_dataset("example1")
        path.write_text(partition_to_json(Partition.grand(g.labels)))
        code, out, err = run(capsys, "stability", "--graph", "example1", "--partition", str(path), *flags)
        assert code == 2
        assert out == ""
        assert named in err


class TestSweepCommand:
    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "sweep", "--graph", "example1", "--grid", "9", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == (
            "alpha_lo,alpha_hi,partition_id,partition_canonical,"
            "potential_intercept,potential_slope"
        )
        assert lines[1].startswith("0,1/9,P0,")
        assert lines[2].startswith("1/9,1,P1,")
        assert '"A,B,C|D,E,F"' in lines[2]

    def test_graph_without_nodes_has_one_row(self, capsys, tmp_path):
        graph = tmp_path / "comments.edges"
        graph.write_text("# no edges\n# and no nodes\n")
        code, out, err = run(capsys, "sweep", "--graph", str(graph))
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(row["alpha_lo"], row["alpha_hi"], row["partition_canonical"]) for row in rows] == [
            ("0", "1", "")
        ]

    def test_start_files(self, capsys, tmp_path):
        split = tmp_path / "split.json"
        split.write_text(
            partition_to_json(Partition([{"A", "B", "C"}, {"D", "E", "F"}]))
        )
        code, out, _ = run(
            capsys, "sweep", "--graph", "example1", "--starts", str(split), "--grid", "4"
        )
        assert code == 0
        assert out.count("\n") >= 3  # header + at least two rows


    def test_a_grid_of_ten_thousand_gives_the_library_table(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, err = run(
            capsys, "sweep", "--graph", "example2", "--grid", "10000", "--out", str(out_path)
        )
        assert code == 0, err
        table = alpha_sweep(load_dataset("example2"), grid=10000)
        assert out_path.read_text() == sweep_to_csv(table)


class TestDatasetCommand:
    def test_info(self, capsys):
        code, out, _ = run(capsys, "dataset", "--name", "example2", "--emit", "info")
        assert code == 0
        info = json.loads(out)
        assert (info["n"], info["m"]) == (26, 78)
        assert info["clique_sizes"] == [8, 5, 6, 7]

    def test_info_marks_a_multigraph(self, capsys):
        code, out, _ = run(capsys, "dataset", "--name", "example1", "--emit", "info")
        assert code == 0
        info = json.loads(out)
        assert info["multigraph"] is True
        assert (info["n"], info["m"]) == (6, 9)

    def test_edgelist_round_trips(self, capsys):
        code, out, _ = run(capsys, "dataset", "--name", "example1", "--emit", "edgelist")
        assert code == 0
        assert "B C 2" in out.splitlines()
        from coopgraph import parse_edge_list, serialize_edge_list

        assert serialize_edge_list(parse_edge_list(out)) == out

    def test_unknown_dataset_exits_2(self, capsys):
        code, _, err = run(capsys, "dataset", "--name", "nope", "--emit", "info")
        assert code == 2
        assert "karate" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--graph", "example1", "--grid", "\u0662"),
            ("partition", "hedonic", "--graph", "example1", "--alpha", "1/5", "--init", "singletons", "--seed", "1_0"),
            ("partition", "myerson", "--graph", "example1", "--r", "1/2", "--init", "singletons", "--max-steps", "1_0"),
        ],
        ids=["grid-arabic-indic", "seed-underscore", "max-steps-underscore"],
    )
    def test_integer_flags_take_ascii_digits_only(self, capsys, argv):
        # int() would read the first as 2 and the others as 10.
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "ASCII digits" in err

    def test_size_gate_maps_to_exit_3(self, capsys, monkeypatch):
        from coopgraph import SizeGateError
        import coopgraph.cli as cli

        def refuse(arg):
            raise SizeGateError("exact enumeration refused: 40 nodes")

        monkeypatch.setattr(cli, "_resolve_graph", refuse)
        code, _, err = run(
            capsys, "partition", "hedonic", "--graph", "karate", "--alpha", "1/5"
        )
        assert code == 3
        assert "refused" in err

    @pytest.mark.parametrize(
        "blocks",
        [[["A", "B", "C"], ["D", "E", "F", 1, "zz"]], [["A", "B", "C"], ["D", "E", ["F"]]]],
        ids=["integer", "nested"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("stability", "--graph", "example1", "--model", "hedonic", "--alpha", "1/5", "--partition"),
            ("threshold", "--graph", "example1", "--p2", "{grand}", "--p1"),
            ("partition", "hedonic", "--graph", "example1", "--alpha", "1/5", "--init"),
        ],
        ids=["stability", "threshold", "init"],
    )
    def test_non_string_member_in_partition_file_exits_2(self, capsys, tmp_path, blocks, argv):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"blocks": blocks}))
        grand = tmp_path / "grand.json"
        grand.write_text(partition_to_json(Partition.grand(load_dataset("example1").labels)))
        argv = [arg.format(grand=grand) for arg in argv]
        code, _, err = run(capsys, *argv, str(bad))
        assert code == 2
        assert "must be a string" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("stability", "--graph", "example1", "--model", "myerson", "--r", "1/2", "--partition"),
            ("partition", "myerson", "--graph", "example1", "--r", "1/2", "--init"),
        ],
        ids=["stability", "init"],
    )
    def test_member_listed_twice_in_partition_file_exits_2(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"blocks": [["A", "A", "B", "C"], ["D", "E", "F"]]}))
        code, _, err = run(capsys, *argv, str(bad))
        assert code == 2
        assert "node listed twice in one block: 'A'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("partition", "myerson", "--graph", "example1", "--r", "1/2", "--init"),
            ("stability", "--graph", "example1", "--model", "hedonic", "--alpha", "1/5", "--partition"),
            ("threshold", "--graph", "example1", "--p2", "{grand}", "--p1"),
            ("threshold", "--graph", "example1", "--p1", "{grand}", "--p2"),
        ],
        ids=["init", "stability", "threshold-p1", "threshold-p2"],
    )
    def test_partition_file_with_a_byte_order_mark_reads_as_without(self, capsys, tmp_path, argv):
        # Edge lists with a UTF-8 byte-order mark are read; partition
        # files are too, with the same result as without the mark.
        text = partition_to_json(Partition([{"A", "B", "C"}, {"D", "E", "F"}]))
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        grand = tmp_path / "grand.json"
        grand.write_text(partition_to_json(Partition.grand(load_dataset("example1").labels)))
        argv = [arg.format(grand=grand) for arg in argv]
        outs = []
        for path in (plain, marked):
            code, out, err = run(capsys, *argv, str(path))
            assert code == 0, err
            outs.append(re.sub(r'"timing_seconds": [0-9.e-]+', "", out))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("partition", "hedonic", "--alpha", "1/5", "--modularity"), "choose exactly one"),
            (("partition", "hedonic", "--modularity", "--beta", "uniform"), "--beta must be 'uniform:p/q' or 'degree-norm'"),
            (("partition", "hedonic", "--alpha", "1/5", "--gamma", "2"), "--gamma applies to --modularity only"),
            (("partition", "myerson", "--r", "3/2"), "discount r must lie in [0, 1]"),
            (("myerson", "value", "--coalition", "A,A"), "lists node 'A' more than once"),
            (("myerson", "value", "--coalition", "A", "--r", "2"), "discount r must lie in [0, 1]"),
            (("stability", "--partition", "p.json", "--model", "myerson"), "--model myerson needs --r p/q"),
            (("stability", "--partition", "p.json", "--model", "hedonic"), "--model hedonic needs --alpha p/q"),
            (
                ("stability", "--partition", "p.json", "--model", "hedonic", "--alpha", "1/5", "--external"),
                "--external applies to the myerson model only",
            ),
            (
                ("stability", "--partition", "p.json", "--model", "myerson", "--r", "1/2", "--alpha", "1/3"),
                "--alpha applies to the hedonic model only",
            ),
            (("stability", "--partition", "p.json", "--model", "myerson", "--r", "-1"), "discount r must lie in [0, 1]"),
            (("partition", "hedonic", "--alpha", "1/5", "--max-steps", "0"), "max_steps must be None or a positive int, got 0"),
            (("partition", "myerson", "--r", "1/2", "--max-steps", "0"), "max_steps must be None or a positive int, got 0"),
            (("sweep", "--grid", "0"), "grid must be an int of at least 1, got 0"),
        ],
        ids=[
            "alpha-and-modularity", "malformed-beta", "gamma-with-alpha", "r-above-one", "repeated-member",
            "value-r-above-one", "myerson-without-r", "hedonic-without-alpha", "external-for-hedonic",
            "alpha-for-myerson", "negative-r", "hedonic-max-steps-zero", "myerson-max-steps-zero", "grid-zero",
        ],
    )
    def test_flag_errors_come_before_any_file_is_read(self, capsys, tmp_path, argv, named):
        # Neither the graph nor the partition file exists.
        argv = [str(tmp_path / a) if a == "p.json" else a for a in argv]
        code, out, err = run(capsys, *argv, "--graph", str(tmp_path / "missing.edges"))
        assert (code, out) == (2, "")
        assert named in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, named",
        [
            ((), "coopgraph: error: the following arguments are required: command\n"),
            (("myerson",), "coopgraph myerson: error: the following arguments are required: query\n"),
            (("partition", "frobnicate"), "coopgraph partition: error: argument engine: invalid choice: 'frobnicate'"),
        ],
        ids=["command", "query", "engine"],
    )
    def test_errors_name_a_level_by_its_dest(self, capsys, argv, named):
        # A metavar would take the dest's place in these messages.
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert named in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "dataset", "--name", "karate", "--emit", "info", "--bogus")
        assert code == 2

    def test_missing_graph_file(self, capsys):
        code, _, err = run(capsys, "dataset", "--name", "karate", "--emit", "info")
        assert code == 0
        code, _, err = run(
            capsys, "partition", "hedonic", "--graph", "missing.edges", "--alpha", "1/5"
        )
        assert code == 2
        assert "neither a dataset" in err


# Per command: the words that name it, flags that parse (the first two a
# required flag and its value), and a flag with a value it refuses.
_COMMAND_PATHS = {
    "partition-hedonic": (("partition", "hedonic"), ("--graph", "example1", "--alpha", "1/5"), ("--schedule", "sideways")),
    "partition-myerson": (("partition", "myerson"), ("--graph", "example1", "--r", "1/2"), ("--schedule", "sideways")),
    "myerson-value": (("myerson", "value"), ("--graph", "example1", "--coalition", "A,B"), None),
    "stability": (("stability",), ("--graph", "example1", "--partition", "p.json", "--model", "hedonic"), ("--model", "both")),
    "threshold": (("threshold",), ("--graph", "example1", "--p1", "a.json", "--p2", "b.json"), None),
    "sweep": (("sweep",), ("--graph", "example1", "--grid", "4"), ("--grid", "four")),
    "dataset": (("dataset",), ("--name", "karate", "--emit", "info"), ("--emit", "yaml")),
}


def _parser_corpus():
    for name, (words, flags, bad) in _COMMAND_PATHS.items():
        yield f"{name}-ok", (*words, *flags)
        yield f"{name}-help", (*words, "-h")
        yield f"{name}-missing-required", (*words, *flags[2:])
        yield f"{name}-unknown-flag", (*words, *flags, "--bogus")
        yield f"{name}-extra-positional", (*words, *flags, "extra")
        if bad is not None:
            yield f"{name}-bad-value", (*words, *flags, *bad)
    for level in ((), ("partition",), ("myerson",)):
        name = "-".join(level) or "top"
        yield f"{name}-no-word", level
        yield f"{name}-help", (*level, "-h")
        yield f"{name}-unknown-word", (*level, "frobnicate")
    yield "help-before-command", ("-h", "partition")
    yield "help-before-engine", ("partition", "-h", "hedonic")


_PARSER_CORPUS = dict(_parser_corpus())


class TestParser:
    @staticmethod
    def parse(capsys, parser, argv):
        try:
            result = parser.parse_args(list(argv))
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    @pytest.mark.parametrize("argv", _PARSER_CORPUS.values(), ids=_PARSER_CORPUS.keys())
    def test_the_parser_argv_names_parses_as_the_full_tree(self, capsys, monkeypatch, argv):
        # Help wraps at the terminal width, which COLUMNS fixes.
        monkeypatch.setenv("COLUMNS", "80")
        assert self.parse(capsys, build_parser(argv), argv) == self.parse(capsys, build_parser(), argv)

    @pytest.mark.parametrize(
        "argv, parsers, lookups",
        [
            (("partition", "hedonic", "--graph", "example1", "--alpha", "1/5"), 3, 9),
            (("partition", "myerson", "--graph", "example1", "--r", "1/2"), 3, 9),
            (("sweep", "--graph", "example1", "--grid", "2"), 2, 6),
        ],
        ids=["partition-hedonic", "partition-myerson", "sweep"],
    )
    def test_a_command_builds_only_its_own_parser(self, capsys, monkeypatch, argv, parsers, lookups):
        # The full tree is 10 parsers and 30 gettext lookups.
        counts = Counter()
        init, gettext = argparse.ArgumentParser.__init__, argparse._

        def counted_init(parser, *args, **kwargs):
            counts["parsers"] += 1
            init(parser, *args, **kwargs)

        def counted_gettext(message):
            counts["lookups"] += 1
            return gettext(message)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        monkeypatch.setattr(argparse, "_", counted_gettext)
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert counts == {"parsers": parsers, "lookups": lookups}


@pytest.mark.parametrize(
    "command",
    [["partition", "myerson", "--r", "1/2", "--init", "singletons"], ["sweep", "--grid", "4"]],
    ids=["partition", "sweep"],
)
def test_out_files_are_utf8(tmp_path, command):
    # Inputs are read as UTF-8, so --out files are written so too: an
    # interpreter that makes a write in the locale's encoding an error
    # runs the command.
    graph, out = tmp_path / "labels.edges", tmp_path / "report"
    graph.write_bytes("a\u00e9 b\nb c\n".encode("utf-8"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "coopgraph.cli",
         *command, "--graph", str(graph), "--out", str(out)],
        capture_output=True, env=env, timeout=120, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    text = out.read_bytes().decode("utf-8")
    assert "a\u00e9" in (json.loads(text)["partition"]["blocks"][0] if command[0] == "partition" else text)
