"""Document round trips, CLI exit codes on the shipped examples, plot data."""

import contextlib
import io
import json
import re
import sys
import time
from fractions import Fraction

import pytest

from paretostar import (
    Agent,
    Polytope,
    characterizations,
    cli,
    geometry,
    pareto_star_check,
    preferences,
    profile,
    utility,
    witnesses,
)
from paretostar.axioms import AXIOM_CHECKS
from paretostar.characterizations import CONDITION_CHECKS, ConditionReport
from paretostar.cli import build_parser, main
from paretostar.documents import (
    dumps,
    format_decimal,
    jsonable,
    load_acts,
    load_profile,
    profile_from_dict,
    profile_to_dict,
    save_json,
)
from paretostar.errors import (
    CapExceededError,
    DimensionMismatchError,
    DocumentError,
    InternalError,
)
from paretostar.harness import FuzzReport, GenParams, cross_validate, random_profile
from paretostar.witnesses import revalidate

from helpers import moment_curve_set, scenario1, wide_profile

F = Fraction


SHIPPED_PROFILES = (
    "common_singleton",
    "dictator",
    "example1",
    "example2",
    "example2_p08",
)


class TestDocuments:
    def test_profile_round_trip(self, profiles_dir):
        prof = load_profile(profiles_dir / "example1.profile")
        again = profile_from_dict(json.loads(dumps(profile_to_dict(prof)), parse_float=Fraction))
        assert again == prof

    @pytest.mark.parametrize("name", SHIPPED_PROFILES)
    def test_profile_document_reloads(self, profiles_dir, name):
        prof = load_profile(profiles_dir / f"{name}.profile")
        assert profile_from_dict(json.loads(dumps(prof), parse_float=Fraction)) == prof

    def test_profile_document_is_unchanged(self, profiles_dir):
        """`profile_to_dict` writes what it wrote as a hand-built dict."""

        def hand_built(prof):
            out = {
                "states": prof.states,
                "outcome_dim": prof.outcome_dim,
                "agents": [jsonable(a) for a in prof.agents],
            }
            if prof.society is not None:
                out["society"] = jsonable(prof.society)
            return out

        profs = [load_profile(profiles_dir / f"{name}.profile") for name in SHIPPED_PROFILES]
        for seed in range(40):
            rule = ("minkowski", "hull-union", "perturbed", "none")[seed % 4]
            profs.append(random_profile(GenParams(seed=seed, n=2 + seed % 3, society_rule=rule)))
        assert sum(prof.society is None for prof in profs) >= 10
        for prof in profs:
            doc = profile_to_dict(prof)
            assert doc == hand_built(prof) and dumps(doc) == dumps(hand_built(prof))
            assert ("society" in doc) == (prof.society is not None)

    def test_decimal_strings_parse_exactly(self, profiles_dir):
        prof = load_profile(profiles_dir / "example1.profile")
        assert prof.agents[0].beliefs.vertices[0] == (F(1, 5), F(4, 5))

    def test_bare_json_decimals_parse_exactly(self, tmp_path):
        doc = tmp_path / "p.profile"
        doc.write_text(
            '{"states": 2, "outcome_dim": 1,'
            ' "agents": [{"utility": {"coeffs": [1]}, "beliefs": [[0.2, 0.8]]},'
            ' {"utility": {"coeffs": [2]}, "beliefs": [[0.7, 0.3]]}]}'
        )
        prof = load_profile(doc)
        assert prof.agents[0].beliefs.vertices[0] == (F(1, 5), F(4, 5))

    def test_invalid_profile_rejected(self, tmp_path):
        doc = tmp_path / "bad.profile"
        doc.write_text(
            '{"states": 2, "outcome_dim": 1,'
            ' "agents": [{"utility": {"coeffs": [0]}, "beliefs": [[0.5, 0.5]]},'
            ' {"utility": {"coeffs": [1]}, "beliefs": [[0.5, 0.5]]}]}'
        )
        with pytest.raises(DocumentError):
            load_profile(doc)

    def test_acts_shape_checked(self, profiles_dir, tmp_path):
        prof = load_profile(profiles_dir / "example1.profile")
        doc = tmp_path / "a.acts"
        doc.write_text('{"acts": [{"rows": [[1], [2]]}]}')
        with pytest.raises(DocumentError):
            load_acts(doc, prof)

    def test_format_decimal(self):
        assert format_decimal(F(1, 5), 2) == "0.20"
        assert format_decimal(F(-1, 3), 4) == "-0.3333"
        assert format_decimal(F(10), 0) == "10"

    def test_serialized_profile_has_no_floats(self, profiles_dir):
        prof = load_profile(profiles_dir / "example1.profile")
        text = dumps(profile_to_dict(prof))
        assert "0.2" not in text  # rationals render as 1/5
        assert "1/5" in text


class TestCliCheck:
    def test_pareto_star_violation_exit_1(self, profiles_dir, capsys):
        code = main(
            [
                "check",
                str(profiles_dir / "example1.profile"),
                "pareto-star",
                "--acts",
                str(profiles_dir / "sq_vs_reform.acts"),
            ]
        )
        assert code == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_thm2_failure_exit_1_with_combo(self, profiles_dir, capsys):
        code = main(["check", str(profiles_dir / "example2_p08.profile"), "thm2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "failing combo" in out

    def test_thm1_pass_exit_0(self, profiles_dir):
        assert main(["check", str(profiles_dir / "common_singleton.profile"), "thm1"]) == 0
        assert main(["check", str(profiles_dir / "dictator.profile"), "thm1"]) == 0

    def test_thm2_pass_exit_0(self, profiles_dir):
        assert main(["check", str(profiles_dir / "example2.profile"), "thm2"]) == 0
        assert main(["check", str(profiles_dir / "example2.profile"), "eq4"]) == 0

    def test_precondition_exit_2(self, profiles_dir):
        assert main(["check", str(profiles_dir / "example2.profile"), "thm1"]) == 2

    def test_seu_existence(self, profiles_dir):
        assert main(["check", str(profiles_dir / "example2.profile"), "seu-existence"]) == 0

    def test_missing_file_exit_3(self):
        assert main(["check", "no_such.profile", "thm2"]) == 3

    def test_axiom_without_acts_exit_3(self, profiles_dir):
        assert main(["check", str(profiles_dir / "example1.profile"), "pareto-star"]) == 3

    def test_one_act_exit_3(self, profiles_dir, tmp_path, capsys):
        acts = tmp_path / "one.acts"
        acts.write_text('{"acts": [{"name": "sq", "rows": [[0, 0], [0, 0]]}]}')
        code = main(["check", str(profiles_dir / "example1.profile"), "pareto-star",
                     "--acts", str(acts)])
        assert code == 3
        captured = capsys.readouterr()
        assert "acts file must contain at least two acts (f, g)" in captured.err
        assert captured.out == ""

    def test_unknown_tag_exit_3(self, profiles_dir):
        assert main(["check", str(profiles_dir / "example1.profile"), "nonsense"]) == 3

    def test_machine_format_is_json(self, profiles_dir, capsys):
        code = main(
            ["check", str(profiles_dir / "example2_p08.profile"), "thm2", "--format", "machine"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["holds"] is False


class TestCliMalformedProfile:
    """A malformed profile document is an input error (exit 3), never read as
    a smaller or society-less profile."""

    @staticmethod
    def _write(tmp_path, data):
        doc = tmp_path / "doc.profile"
        doc.write_text(json.dumps(data))
        return str(doc)

    @pytest.mark.parametrize("society", [{}, [], 0, False, ""])
    def test_falsy_society_exit_3(self, profiles_dir, tmp_path, society, capsys):
        data = json.loads((profiles_dir / "example2.profile").read_text())
        data["society"] = society
        assert main(["check", self._write(tmp_path, data), "thm2"]) == 3
        assert "society" in capsys.readouterr().err

    def test_absent_or_null_society_exit_2(self, profiles_dir, tmp_path, capsys):
        data = json.loads((profiles_dir / "example2.profile").read_text())
        data["society"] = None
        assert main(["check", self._write(tmp_path, data), "thm2"]) == 2
        del data["society"]
        assert main(["check", self._write(tmp_path, data), "thm2"]) == 2
        assert "no society" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["states", "outcome_dim"])
    def test_boolean_size_exit_3(self, tmp_path, key, capsys):
        one_d = [
            {"utility": {"coeffs": [1]}, "beliefs": [[0.5, 0.5]]},
            {"utility": {"coeffs": [2]}, "beliefs": [[0.25, 0.75]]},
        ]
        data = {"states": 2, "outcome_dim": 1, "agents": one_d, "society": one_d[0]}
        assert main(["check", self._write(tmp_path, data), "thm2"]) == 0
        data[key] = True
        assert main(["check", self._write(tmp_path, data), "thm2"]) == 3
        assert "must be integers" in capsys.readouterr().err


def _set(path, value):
    """An edit of a parsed document: the document with the value at path set."""
    def edit(data):
        *head, last = path
        node = data
        for key in head:
            node = node[key]
        node[last] = value
        return data
    return edit


def _coeff_text(text):
    """The example2 profile with agent 1's first coefficient written as raw JSON text."""
    def build(data):
        data["agents"][0]["utility"]["coeffs"][0] = "@@"
        return json.dumps(data).replace('"@@"', text)
    return build


COEFFS = ("agents", 0, "utility", "coeffs")


class TestCliMalformedDocuments:
    """Every way a profile or acts document can fail to load exits 3 with a
    message naming the fault, never 1 (a verdict) or a traceback."""

    # (id, document kind, edit of the parsed document or builder of its text, stderr substring)
    CASES = [
        ("invalid-json", "profile", lambda data: '{"states": 2,', "is not valid JSON"),
        ("bad-number", "profile", _set(COEFFS, ["one", 0]),
         "bad number in agents[0].utility.coeffs"),
        ("non-list-vector", "profile", _set(COEFFS, 5),
         "agents[0].utility.coeffs must be a nonempty list"),
        ("missing-coeffs", "profile", _set(("agents", 0, "utility"), {"constant": 0}),
         "agents[0]: utility needs 'coeffs'"),
        ("empty-beliefs", "profile", _set(("agents", 0, "beliefs"), []),
         "agents[0]: beliefs must list at least one prior"),
        ("bad-belief-set", "profile", _set(("agents", 0, "beliefs"), [["0.5", "0.5"], ["1"]]),
         "agents[0]: bad belief set (points of mixed dimension)"),
        ("agent-name", "profile", _set(("agents", 0, "name"), 5),
         "agents[0]: name must be a string"),
        ("non-object-profile", "profile", lambda data: "[]",
         "profile document must be a JSON object"),
        ("missing-key", "profile", lambda data: {k: data[k] for k in ("states", "agents")},
         "profile document lacks 'outcome_dim'"),
        ("agents-not-list", "profile", _set(("agents",), {}), "'agents' must be a list"),
        ("acts-not-list", "acts", _set(("acts",), 5), "acts document needs an 'acts' list"),
        ("act-without-rows", "acts", _set(("acts", 0), {"name": "f"}), "acts[0] needs 'rows'"),
        ("one-row", "acts", _set(("acts", 0, "rows"), [[0, 0]]),
         "acts[0]: need one outcome row per state"),
        ("mixed-widths", "acts", _set(("acts", 0, "rows"), [[0, 0], [0]]),
         "acts[0]: rows of mixed outcome dimension"),
        ("act-name", "acts", _set(("acts", 0, "name"), 7), "acts[0]: name must be a string"),
        ("utf16-bom", "profile", lambda data: b"\xff\xfe" + json.dumps(data).encode(),
         "can't decode byte 0xff"),
        ("deep-nesting", "profile", lambda data: "[" * 100_000, "recursion"),
        ("5001-digit-integer", "profile", _coeff_text("1" * 5001), "is not valid JSON"),
        ("zero-denominator-coeff", "profile", _set(COEFFS, ["1/0", 0]),
         "bad number in agents[0].utility.coeffs: '1/0'"),
        ("zero-over-zero-constant", "profile", _set(("agents", 0, "utility", "constant"), "0/0"),
         "bad number in agents[0].utility.constant: '0/0'"),
        ("zero-denominator-belief", "profile", _set(("society", "beliefs", 0), ["1/0", 1]),
         "bad number in society.beliefs: '1/0'"),
        ("zero-denominator-act-row", "acts", _set(("acts", 1, "rows", 0), [0, "0/0"]),
         "bad number in acts[1]: '0/0'"),
    ]

    @pytest.mark.parametrize(
        "kind, make, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
    )
    def test_exit_3(self, profiles_dir, tmp_path, kind, make, message, capsys):
        source = "example2.profile" if kind == "profile" else "sq_vs_reform.acts"
        doc = make(json.loads((profiles_dir / source).read_text()))
        if isinstance(doc, dict):
            doc = json.dumps(doc)
        path = tmp_path / f"doc.{kind}"
        (path.write_bytes if isinstance(doc, bytes) else path.write_text)(doc)
        if kind == "profile":
            argv = ["check", str(path), "thm2"]
        else:
            argv = ["check", str(profiles_dir / "example1.profile"), "pareto-star",
                    "--acts", str(path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("what, fmt", [("thm2", "human"), ("thm2", "machine"),
                                           ("eq4", "machine")])
    def test_coefficient_too_long_to_write_exit_3(
        self, profiles_dir, tmp_path, what, fmt, capsys
    ):
        data = json.loads((profiles_dir / "example2.profile").read_text())
        data["society"]["utility"]["coeffs"] = ["1e5000", 0]
        path = tmp_path / "big.profile"
        path.write_text(json.dumps(data))
        assert main(["check", str(path), what, "--format", fmt]) == 3
        assert "bad number in society.utility.coeffs: '1e5000'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['"1e100000000"', "1e100000000", '"1e10000000"'])
    def test_huge_exponent_refused_in_under_a_second(self, profiles_dir, tmp_path, text, capsys):
        data = json.loads((profiles_dir / "example2.profile").read_text())
        path = tmp_path / "huge.profile"
        path.write_text(_coeff_text(text)(data))
        start = time.perf_counter()
        assert main(["check", str(path), "thm2"]) == 3
        assert time.perf_counter() - start < 1
        number = text.strip('"')
        assert f"number '{number}' may exceed 4300 digits" in capsys.readouterr().err

    def test_largest_written_number_still_loads(self, profiles_dir, tmp_path, capsys):
        data = json.loads((profiles_dir / "example2.profile").read_text())
        data["society"]["utility"]["coeffs"] = ["1e4299", 0]
        path = tmp_path / "big.profile"
        path.write_text(json.dumps(data))
        assert main(["check", str(path), "eq4", "--format", "machine"]) == 0
        assert "1" + "0" * 4299 in capsys.readouterr().out

    @pytest.mark.parametrize("precision, code", [(5000, 3), (4301, 3), (4300, 0)])
    def test_precision_cap(self, profiles_dir, tmp_path, precision, code, capsys):
        out = tmp_path / "curves.csv"
        argv = ["plot-data", str(profiles_dir / "example1.profile"),
                str(profiles_dir / "sq_vs_reform.acts"), "--out", str(out),
                "--grid", "2", "--precision", str(precision)]
        assert main(argv) == code
        if code:
            assert "--precision must be at most 4300" in capsys.readouterr().err
            assert not out.exists()


class TestCliWitness:
    def test_ct_witness_file_revalidates(self, profiles_dir, tmp_path, capsys):
        out = tmp_path / "w.json"
        code = main(
            [
                "witness",
                str(profiles_dir / "example2_p08.profile"),
                "ct-pareto-star",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["violates"] == "ct-pareto-star"
        margins = [F(am["margin"]) for am in data["per_agent"]]
        assert all(m > 0 for m in margins)
        assert F(data["society_margin"]) > 0

    def test_spurious_unanimity_epsilon(self, profiles_dir, tmp_path):
        out = tmp_path / "w.json"
        code = main(
            [
                "witness",
                str(profiles_dir / "example1.profile"),
                "spurious-unanimity",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert F(data["params"]["epsilon"]) == F(9, 100)

    def test_nothing_to_witness_exit_2(self, profiles_dir, tmp_path):
        code = main(
            [
                "witness",
                str(profiles_dir / "example2.profile"),
                "ct-pareto-star",
                "--out",
                str(tmp_path / "w.json"),
            ]
        )
        assert code == 2

    def test_witness_files_reconstruct_and_violate(self, profiles_dir, tmp_path):
        from paretostar.preferences import Act

        out = tmp_path / "w.json"
        main(
            [
                "witness",
                str(profiles_dir / "example2_p08.profile"),
                "ct-pareto-star",
                "--out",
                str(out),
            ]
        )
        prof = load_profile(profiles_dir / "example2_p08.profile")
        data = json.loads(out.read_text())
        act_f = Act(tuple(tuple(F(x) for x in row) for row in data["act_f"]["rows"]))
        act_x = Act(tuple(tuple(F(x) for x in row) for row in data["act_x"]["rows"]))
        verdict = AXIOM_CHECKS[data["violates"]](prof, act_x, act_f)
        assert verdict.violation


class TestCliOtherErrors:
    """An output path that cannot be written, and a package error of no
    other kind, are input errors: exit 3, no traceback, no file."""

    @pytest.mark.parametrize("command", ["witness", "plot-data"])
    def test_out_into_a_missing_directory_exit_3(self, profiles_dir, tmp_path, command, capsys):
        args = {
            "witness": [str(profiles_dir / "example2_p08.profile"), "ct-pareto-star"],
            "plot-data": [str(profiles_dir / "example1.profile"),
                          str(profiles_dir / "sq_vs_reform.acts")],
        }[command]
        out = tmp_path / "missing" / "out.json"
        code = main([command, *args, "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: [Errno 2] No such file or directory")
        assert captured.out == "" and not out.parent.exists()

    def test_package_error_of_no_other_kind_exit_3(self, profiles_dir, monkeypatch, capsys):
        def mismatched(prof):
            raise DimensionMismatchError("operands of lengths 2 and 3")

        monkeypatch.setitem(CONDITION_CHECKS, "thm2", mismatched)
        code = main(["check", str(profiles_dir / "example2.profile"), "thm2"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == "error: operands of lengths 2 and 3\n" and captured.out == ""


class TestCliInternalError:
    """A failed internal re-check exits 4 in every run mode, python -O too."""

    def test_missing_separator_exit_4(self, profiles_dir, monkeypatch, capsys):
        monkeypatch.setattr(characterizations, "separate", lambda points, P: None)
        code = main(["check", str(profiles_dir / "example2_p08.profile"), "thm2"])
        assert code == 4
        assert capsys.readouterr().err.startswith("internal error: ")

    def test_redundancy_bug_is_not_an_input_error(self, profiles_dir, monkeypatch, capsys):
        def broken(points):
            raise InternalError("kernel bug")
        monkeypatch.setattr(geometry, "remove_redundant", broken)
        assert main(["check", str(profiles_dir / "example2.profile"), "thm2"]) == 4
        assert capsys.readouterr().err.startswith("internal error: kernel bug")

    def test_thm1_failure_outside_both_classes_exit_4(self, profiles_dir, monkeypatch, capsys):
        pair = ConditionReport("distinct-prior-pair", True, {})
        monkeypatch.setattr(characterizations, "distinct_prior_pair", lambda prof, dec: pair)
        assert main(["check", str(profiles_dir / "example1.profile"), "thm1"]) == 4
        assert capsys.readouterr().err == (
            "internal error: thm1 failure must fall in one of the two classes\n"
        )

    def test_unexpected_exception_exit_4_with_traceback(self, profiles_dir, monkeypatch, capsys):
        def broken(prof):
            raise ZeroDivisionError("boom")
        monkeypatch.setattr(characterizations, "check_thm2_condition", broken)
        assert main(["check", str(profiles_dir / "example2.profile"), "thm2"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: ZeroDivisionError: boom\n")
        assert "Traceback (most recent call last)" in err

    def test_unvalidated_witness_exit_4_and_no_file(self, profiles_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(witnesses, "revalidate", lambda prof, cert: False)
        out = tmp_path / "w.json"
        code = main(
            ["witness", str(profiles_dir / "example2_p08.profile"), "ct-pareto-star", "--out", str(out)]
        )
        assert code == 4
        assert not out.exists()


class TestCliCaps:
    """Size caps are fixed: over either one the CLI exits 2, and no option sets them."""

    COMBOS = "131072 vertex combos exceed the cap 100000"

    @pytest.fixture
    def wide(self, tmp_path):
        path = tmp_path / "wide.profile"
        save_json(path, profile_to_dict(wide_profile(17)))
        return str(path)

    @pytest.mark.parametrize("what", ["thm2", "prop2", "seu-existence"])
    def test_combo_cap_exit_2(self, wide, what, capsys):
        assert main(["check", wide, what]) == 2
        assert self.COMBOS in capsys.readouterr().err

    def test_witness_combo_cap_exit_2(self, wide, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main(["witness", wide, "ct-pareto-star", "--out", str(out)]) == 2
        assert self.COMBOS in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture
    def seven(self, tmp_path):
        path = tmp_path / "seven.profile"
        center = [F(1, 7)] * 7
        corner = [F(1, 2)] + [F(1, 12)] * 6
        agents = [Agent(utility([1]), Polytope.from_generators([center, corner]), "a"),
                  Agent(utility([1]), Polytope.from_generators([center]), "b")]
        soc = Agent(utility([1]), Polytope.from_generators([center]), "society")
        save_json(path, profile_to_dict(profile(agents, soc)))
        return str(path)

    def test_seven_states_answer(self, seven, capsys):
        """No ambient-dimension cap: seven states get an answer."""
        assert main(["check", seven, "corollary2", "--format", "machine"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["holds"] is True
        assert report["details"]["intersection"] == [["1/7"] * 7]

    def test_ray_budget_exit_2(self, seven, monkeypatch, capsys):
        """Past the double description's work budget the CLI exits 2 and
        names the count and the bound; the budget is read when called."""
        monkeypatch.setattr(geometry, "DD_BUDGET", 3)
        assert main(["check", seven, "corollary2"]) == 2
        err = capsys.readouterr().err
        match = re.search(r"vertex enumeration took (\d+) ray tests, over the budget 3\n", err)
        assert match and int(match.group(1)) > 3, err

    def test_high_dimensional_belief_set_answers(self, tmp_path, capsys):
        """Loading a belief set needs no V<->H conversion: 30 generators
        over eight states, whose hull has 5 200 facets, load as 30 vertices
        and thm1 gets an answer, not a cap."""
        common = moment_curve_set()
        data = {**profile_to_dict(scenario1()), "states": 8}
        for who in (*data["agents"], data["society"]):
            who["beliefs"] = [[str(x) for x in p] for p in common + common[:2]]
        path = tmp_path / "eight.profile"
        save_json(path, data)
        assert load_profile(path).agents[0].beliefs.vertices == tuple(sorted(common))
        assert main(["check", str(path), "thm1", "--format", "machine"]) == 1
        assert json.loads(capsys.readouterr().out)["report"]["holds"] is False

    def test_cap_is_read_at_call_time(self, profiles_dir, monkeypatch, capsys):
        monkeypatch.setattr(characterizations, "DEFAULT_COMBO_CAP", 3)
        assert main(["check", str(profiles_dir / "example2.profile"), "thm2"]) == 2
        assert "4 vertex combos exceed the cap 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "example2.profile", "thm2", "--combo-cap", "5"],
            ["check", "example2.profile", "corollary2", "--dim-cap", "3"],
            ["witness", "example2_p08.profile", "ct-pareto-star", "--out", "w.json",
             "--combo-cap", "5"],
        ],
    )
    def test_cap_options_are_gone(self, profiles_dir, tmp_path, argv, capsys):
        argv = [str(profiles_dir / a) if a.endswith(".profile") else a for a in argv]
        argv = [str(tmp_path / a) if a == "w.json" else a for a in argv]
        assert main(argv) == 3
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "w.json").exists()


class TestCliDigitCap:
    """A derived number too long to write back exits 2 in both formats,
    though every input number stays within the 4300-digit cap."""

    @staticmethod
    def _write(profiles_dir, tmp_path, name):
        # The society's weight on the first agent's taste is 10**8598.
        data = json.loads((profiles_dir / f"{name}.profile").read_text())
        data["agents"][0]["utility"]["coeffs"] = ["1e-4299", 0]
        data["agents"][1]["utility"]["coeffs"] = [0, 1]
        data["society"]["utility"]["coeffs"] = ["1e4299", 1]
        path = tmp_path / f"{name}.profile"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_check_exit_2(self, profiles_dir, tmp_path, fmt, capsys):
        path = self._write(profiles_dir, tmp_path, "example2")
        assert main(["check", path, "thm2", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "precondition unmet: a number with 8599 digits exceeds the cap of 4300 "
            "digits that a document can hold\n"
        )

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_check_solves_no_margin_lp(self, profiles_dir, tmp_path, fmt, monkeypatch, capsys):
        """thm2's precondition is one phase-1 LP, not the box-margin LP,
        whose pivots on these thousand-digit tastes took seconds."""
        def no_margin_lp(*args):
            raise AssertionError("a box-margin LP was solved")

        monkeypatch.setattr(preferences, "box_margin", no_margin_lp)
        preferences.check_c_minimal_agreement.cache_clear()
        path = self._write(profiles_dir, tmp_path, "example2")
        assert main(["check", path, "thm2", "--format", fmt]) == 2
        assert "a number with 8599 digits exceeds the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_witness_exit_2_and_no_file(self, profiles_dir, tmp_path, fmt, capsys):
        path = self._write(profiles_dir, tmp_path, "example2_p08")
        out = tmp_path / "w.json"
        argv = ["witness", path, "ct-pareto-star", "--out", str(out), "--format", fmt]
        assert main(argv) == 2
        assert "exceeds the cap of 4300 digits" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("precision", [6, 0])
    def test_plot_data_exit_2_and_no_csv(self, profiles_dir, tmp_path, precision, capsys):
        """A curve value of 10**4299 times an outcome passes the cap as a CSV cell."""
        data = json.loads((profiles_dir / "example1.profile").read_text())
        data["agents"][0]["utility"]["coeffs"] = ["1e4299", 0]
        path = tmp_path / "big.profile"
        path.write_text(json.dumps(data))
        out = tmp_path / "c.csv"
        argv = ["plot-data", str(path), str(profiles_dir / "sq_vs_reform.acts"),
                "--out", str(out), "--precision", str(precision)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("precondition unmet: a number with 4301 digits exceeds the cap")
        assert not out.exists()

    def test_format_decimal_bound(self):
        """With Python's limit on writing integers lifted, a cell's whole part
        still obeys the cap; the longest writable parts still render."""
        set_limit = getattr(sys, "set_int_max_str_digits", None)  # Python >= 3.10.7
        if set_limit is not None:
            limit = sys.get_int_max_str_digits()
            set_limit(0)
        top = 10**4300
        try:
            assert format_decimal(F(1 - top), 2) == f"-{top - 1}.00"
            assert format_decimal(F(top - 1, top), 4300) == "0." + "9" * 4300
            for x in (F(top), F(-top), F(top * 10 + 1, 10)):
                for digits in (0, 6):
                    with pytest.raises(CapExceededError, match="a number with 4301 digits"):
                        format_decimal(x, digits)
        finally:
            if set_limit is not None:
                set_limit(limit)

    def test_jsonable_bound(self):
        top = 10**4300
        assert jsonable(F(top - 1, top - 2)) == f"{top - 1}/{top - 2}"
        assert jsonable(F(1 - top)) == str(1 - top)
        for x, digits in ((F(top), 4301), (F(-top), 4301), (F(1, top), 4301),
                          (F(10**9000 + 1, 3), 9001)):
            with pytest.raises(CapExceededError, match=f"a number with {digits} digits"):
                jsonable({"report": [x]})

    @pytest.mark.parametrize("obj, message", [
        (0.5, "floats must never appear in exact documents"),
        ({"x": object()}, "cannot serialize object"),
    ])
    def test_jsonable_refuses_floats_and_unknown_objects(self, obj, message):
        with pytest.raises(DocumentError, match=message):
            jsonable(obj)

    def test_bound_does_not_rest_on_pythons_own_limit(self):
        """With Python's limit on writing integers lifted, the cap still holds."""
        set_limit = getattr(sys, "set_int_max_str_digits", None)  # Python >= 3.10.7
        if set_limit is not None:
            limit = sys.get_int_max_str_digits()
            set_limit(0)
        try:
            with pytest.raises(CapExceededError, match="a number with 4301 digits"):
                jsonable(F(1, 10**4300))
        finally:
            if set_limit is not None:
                set_limit(limit)


class TestCliPlot:
    def test_golden_rows(self, profiles_dir, tmp_path):
        out = tmp_path / "p.csv"
        code = main(
            [
                "plot-data",
                str(profiles_dir / "example1.profile"),
                str(profiles_dir / "sq_vs_reform.acts"),
                "--out",
                str(out),
                "--precision",
                "2",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["p_A", "mark"]
        idx = {name: i for i, name in enumerate(header)}
        row = next(l for l in lines[1:] if l.startswith("0.80,,")).split(",")
        assert row[idx["Ann:reform"]] == "10.00"
        assert row[idx["Bob:reform"]] == "-50.00"
        # the constant act column is identically zero
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[idx["Ann:status_quo"]] == "0.00"
        # belief endpoints are marked
        assert any(",Ann:min," in l for l in lines)

    def test_example2_value(self, profiles_dir, tmp_path):
        out = tmp_path / "p2.csv"
        main(
            [
                "plot-data",
                str(profiles_dir / "example2.profile"),
                str(profiles_dir / "reform_vs_sq_common.acts"),
                "--out",
                str(out),
                "--precision",
                "2",
            ]
        )
        lines = out.read_text().splitlines()
        idx = {name: i for i, name in enumerate(lines[0].split(","))}
        row = next(l for l in lines[1:] if l.startswith("0.30,,")).split(",")
        assert row[idx["Ann:reform"]] == "-40.00"

    def test_negative_precision_exit_3(self, profiles_dir, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(
            ["plot-data", str(profiles_dir / "example1.profile"),
             str(profiles_dir / "sq_vs_reform.acts"), "--out", str(out), "--precision", "-1"]
        )
        assert code == 3
        assert "--precision must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, message", [
        (1, "--grid must be at least 2"),
        (cli.GRID_CAP + 1, f"--grid must be at most {cli.GRID_CAP}"),
        (10**9, f"--grid must be at most {cli.GRID_CAP}"),
    ])
    def test_grid_out_of_bounds_exit_3_before_evaluating(
        self, profiles_dir, tmp_path, grid, message, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "utility_profile", lambda *a: pytest.fail("evaluated a curve"))
        out = tmp_path / "x.csv"
        start = time.perf_counter()
        code = main(
            ["plot-data", str(profiles_dir / "example1.profile"),
             str(profiles_dir / "sq_vs_reform.acts"), "--out", str(out), "--grid", str(grid)]
        )
        assert time.perf_counter() - start < 1
        assert code == 3
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not out.exists()

    def test_wrong_state_count_exit_2(self, tmp_path, profiles_dir):
        doc = tmp_path / "m3.profile"
        doc.write_text(
            '{"states": 3, "outcome_dim": 1,'
            ' "agents": [{"utility": {"coeffs": [1]}, "beliefs": [["1/3", "1/3", "1/3"]]},'
            ' {"utility": {"coeffs": [2]}, "beliefs": [["1/2", "1/4", "1/4"]]}]}'
        )
        acts = tmp_path / "a.acts"
        acts.write_text('{"acts": [{"rows": [[1], [2], [3]]}, {"rows": [[0], [0], [0]]}]}')
        code = main(["plot-data", str(doc), str(acts), "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestCliFuzz:
    def test_planted_violation_exit_1(self, profiles_dir, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "fuzz",
                str(profiles_dir / "example1.profile"),
                "pareto-star",
                "--trials",
                "100",
                "--seed",
                "7",
                "--acts",
                str(profiles_dir / "sq_vs_reform.acts"),
                "--out",
                str(out),
            ]
        )
        assert code == 1
        data = json.loads(out.read_text())
        assert data["violations"]

    def test_one_planted_act_exit_3(self, profiles_dir, tmp_path, capsys):
        acts = tmp_path / "one.acts"
        acts.write_text('{"acts": [{"name": "sq", "rows": [[0, 0], [0, 0]]}]}')
        out = tmp_path / "r.json"
        code = main(["fuzz", str(profiles_dir / "example1.profile"), "pareto-star",
                     "--trials", "5", "--acts", str(acts), "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert "planted acts file must contain at least two acts" in captured.err
        assert captured.out == "" and not out.exists()

    def test_zero_trials_exit_0(self, profiles_dir):
        code = main(
            ["fuzz", str(profiles_dir / "example1.profile"), "pareto-star", "--trials", "0"]
        )
        assert code == 0

    def test_negative_trials_exit_3(self, profiles_dir, capsys):
        code = main(
            ["fuzz", str(profiles_dir / "example1.profile"), "pareto-star", "--trials", "-5"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "--trials must be nonnegative" in captured.err and captured.out == ""

    @pytest.mark.parametrize("trials", [cli.TRIALS_CAP + 1, 10**9])
    def test_trials_over_the_bound_exit_3_before_any_trial(
        self, profiles_dir, tmp_path, trials, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "fuzz_axiom", lambda *a, **k: pytest.fail("ran a trial"))
        out = tmp_path / "r.json"
        start = time.perf_counter()
        code = main(["fuzz", str(profiles_dir / "example1.profile"), "pareto-star",
                     "--trials", str(trials), "--out", str(out)])
        assert time.perf_counter() - start < 1
        assert code == 3
        captured = capsys.readouterr()
        assert f"--trials must be at most {cli.TRIALS_CAP}" in captured.err
        assert captured.out == "" and not out.exists()

    def test_trials_at_the_bound_accepted(self, profiles_dir, monkeypatch):
        asked = []

        def fake(prof, axiom, trials, **kwargs):
            asked.append(trials)
            return FuzzReport(axiom, kwargs["sampler"], trials, 0, (), "0" * 64)

        monkeypatch.setattr(cli, "fuzz_axiom", fake)
        code = main(["fuzz", str(profiles_dir / "example1.profile"), "pareto-star",
                     "--trials", str(cli.TRIALS_CAP)])
        assert code == 0 and asked == [cli.TRIALS_CAP]

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 5)])
    def test_seed_outside_64_bits_exit_3(self, profiles_dir, tmp_path, seed, capsys):
        out = tmp_path / "r.json"
        code = main(
            ["fuzz", str(profiles_dir / "example1.profile"), "pareto-star",
             "--trials", "5", "--seed", seed, "--out", str(out)]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "--seed must be in [0, 2**64)" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    def test_seed_range_ends_accepted(self, profiles_dir, seed):
        code = main(
            ["fuzz", str(profiles_dir / "example1.profile"), "pareto-star",
             "--trials", "5", "--seed", seed]
        )
        assert code in (0, 1)

    def test_same_seed_byte_identical_reports(self, profiles_dir, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            main(
                [
                    "fuzz",
                    str(profiles_dir / "example1.profile"),
                    "pareto-star",
                    "--trials",
                    "60",
                    "--seed",
                    "3",
                    "--out",
                    str(p),
                ]
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestCliReuse:
    """`main` called many times in one process answers as a fresh process would."""

    @staticmethod
    def _table(profiles_dir, tmp_path):
        """(argv, written file or None) for a spread of commands.  Pairs of
        commands differ in one option (format, planted acts, precision), so
        an option value left behind by one would show in the other."""
        example1 = str(profiles_dir / "example1.profile")
        acts = str(profiles_dir / "sq_vs_reform.acts")
        table = [
            (["check", str(profiles_dir / f"{name}.profile"), tag, "--format", "machine"], None)
            for name in SHIPPED_PROFILES
            for tag in [*CONDITION_CHECKS, "seu-existence"]
        ]
        table += [
            (["check", example1, axiom, "--acts", acts], None) for axiom in AXIOM_CHECKS
        ]
        table += [
            (["check", example1, "thm2"], None),
            (["witness", str(profiles_dir / "example2_p08.profile"), "ct-pareto-star",
              "--out", str(tmp_path / "w_ct.json")], tmp_path / "w_ct.json"),
            (["witness", example1, "spurious-unanimity", "--out", str(tmp_path / "w_su.json"),
              "--format", "machine"], tmp_path / "w_su.json"),
            (["plot-data", example1, acts, "--out", str(tmp_path / "c3.csv"),
              "--precision", "3"], tmp_path / "c3.csv"),
            (["plot-data", example1, acts, "--out", str(tmp_path / "c6.csv")], tmp_path / "c6.csv"),
            (["fuzz", example1, "pareto-star", "--trials", "40", "--seed", "5", "--acts", acts,
              "--out", str(tmp_path / "planted.json")], tmp_path / "planted.json"),
            (["fuzz", example1, "pareto-star", "--trials", "40", "--seed", "5",
              "--out", str(tmp_path / "fuzz.json")], tmp_path / "fuzz.json"),
            (["check", example1], None),
            (["--help"], None),
        ]
        return table

    @staticmethod
    def _run(argv, written):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = ("SystemExit", e.code)
        data = written.read_bytes() if written is not None else None
        return code, out.getvalue(), err.getvalue(), data

    def test_reverse_order_rerun_is_identical(self, profiles_dir, tmp_path):
        table = self._table(profiles_dir, tmp_path)
        first = []
        for argv, written in table:
            build_parser.cache_clear()  # a new parser per command, as a new process builds
            first.append(self._run(argv, written))
        second = [self._run(argv, written) for argv, written in reversed(table)][::-1]
        for (argv, _), a, b in zip(table, first, second):
            assert a == b, argv
        codes = [result[0] for result in first]
        assert codes[-2:] == [3, ("SystemExit", 0)]
        assert {0, 1, 2} <= set(codes)
        assert "usage: paretostar" in first[-1][1]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_rebound_handler_is_reached(self, profiles_dir, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.what) or 7)
        assert main(["check", str(profiles_dir / "example1.profile"), "thm2"]) == 7
        assert seen == ["thm2"]


class TestShippedProfilesMatchApi:
    def test_example1_matches_builder(self, profiles_dir):
        assert load_profile(profiles_dir / "example1.profile") == scenario1()

    def test_documented_violation_reproduces(self, profiles_dir):
        prof = load_profile(profiles_dir / "example1.profile")
        acts = load_acts(profiles_dir / "sq_vs_reform.acts", prof)
        (_, sq), (_, reform) = acts
        assert pareto_star_check(prof, sq, reform).violation


class TestWitnessParity:
    """`paretostar witness` writes the certificate `cross_validate` builds."""

    def assert_parity(self, path, condition, kind, tmp_path):
        cv = cross_validate(load_profile(path), condition, trials=0, seed=0)
        assert cv.verdict == "CONSISTENT" and not cv.checker_holds
        out = tmp_path / "w.json"
        assert main(["witness", str(path), kind, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == dumps(cv.witness)

    def test_ct_pareto_star(self, profiles_dir, tmp_path):
        self.assert_parity(profiles_dir / "example2_p08.profile", "thm2", "ct-pareto-star", tmp_path)

    def test_spurious_unanimity(self, profiles_dir, tmp_path):
        self.assert_parity(profiles_dir / "example1.profile", "thm1", "spurious-unanimity", tmp_path)

    def test_belief_outside_society(self, tmp_path):
        prof = random_profile(
            GenParams(seed=0, n=2, m=2, d=2, max_vertices=2, society_rule="minkowski")
        )
        path = tmp_path / "seeded.profile"
        save_json(path, profile_to_dict(prof))
        report = cross_validate(prof, "thm1", trials=0, seed=0)
        assert report.witness.kind == "lemma1"
        self.assert_parity(path, "thm1", "lemma1", tmp_path)
