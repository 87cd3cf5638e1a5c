"""Document round trips, CLI exit codes on the shipped examples, plot data."""

import json
from fractions import Fraction

import pytest

from paretostar import characterizations, pareto_star_check, witnesses
from paretostar.axioms import AXIOM_CHECKS
from paretostar.cli import main
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
from paretostar.errors import DocumentError
from paretostar.harness import GenParams, cross_validate, random_profile
from paretostar.witnesses import revalidate

from helpers import scenario1

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

    def test_unknown_tag_exit_3(self, profiles_dir):
        assert main(["check", str(profiles_dir / "example1.profile"), "nonsense"]) == 3

    def test_machine_format_is_json(self, profiles_dir, capsys):
        code = main(
            ["check", str(profiles_dir / "example2_p08.profile"), "thm2", "--format", "machine"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["holds"] is False


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


class TestCliInternalError:
    """A failed internal re-check exits 4 in every run mode, python -O too."""

    def test_missing_separator_exit_4(self, profiles_dir, monkeypatch, capsys):
        monkeypatch.setattr(characterizations, "separate", lambda points, P: None)
        code = main(["check", str(profiles_dir / "example2_p08.profile"), "thm2"])
        assert code == 4
        assert capsys.readouterr().err.startswith("internal error: ")

    def test_unvalidated_witness_exit_4_and_no_file(self, profiles_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(witnesses, "revalidate", lambda prof, cert: False)
        out = tmp_path / "w.json"
        code = main(
            ["witness", str(profiles_dir / "example2_p08.profile"), "ct-pareto-star", "--out", str(out)]
        )
        assert code == 4
        assert not out.exists()


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

    def test_zero_trials_exit_0(self, profiles_dir):
        code = main(
            ["fuzz", str(profiles_dir / "example1.profile"), "pareto-star", "--trials", "0"]
        )
        assert code == 0

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
