"""Flag parsing, precedence, serialization formats, and exit codes."""

import hashlib
import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgsim.cli import (
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    emit_csv,
    emit_json,
    main,
    parse_config,
)
from lgsim.nmr import tomography_fidelity_experiment


def run_cli(args, tmp_path, name, monkeypatch=None, env=None):
    """Run the CLI writing to a temp file; return (exit code, file text)."""
    out = tmp_path / name
    code = main([*args, "--output", str(out)])
    return code, (out.read_text(encoding="utf-8") if out.exists() else "")


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(["sweep"], environ={})
        assert cfg.command == "sweep"
        assert cfg.theta_min == 0.0
        assert abs(cfg.theta_max - 2 * math.pi) <= 1e-15
        assert cfg.steps == 721
        assert cfg.epsilon == 1.0
        assert cfg.populations == (0.5, 0.5)
        assert (cfg.t2_probe, cfg.t2_system, cfg.duration) == (3.0, 0.8, 0.01)
        assert cfg.noise_sigma == 0.0
        assert cfg.seed == 42
        assert cfg.format == "csv"
        assert cfg.output is None

    def test_flag_overrides_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"epsilon": 0.5}))
        cfg = parse_config(
            ["sweep", "--config", str(cfg_file), "--epsilon", "0.2"], environ={}
        )
        assert cfg.epsilon == 0.2

    def test_config_file_overrides_default(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"epsilon": 0.5, "steps": 11}))
        cfg = parse_config(["sweep", "--config", str(cfg_file)], environ={})
        assert cfg.epsilon == 0.5
        assert cfg.steps == 11

    def test_config_accepts_dashed_keys(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"theta-max": 3.14, "noise-sigma": 0.1}))
        cfg = parse_config(["sweep", "--config", str(cfg_file)], environ={})
        assert cfg.theta_max == 3.14
        assert cfg.noise_sigma == 0.1

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"stepz": 10}))
        with pytest.raises(UsageError, match="stepz"):
            parse_config(["sweep", "--config", str(cfg_file)], environ={})

    def test_seed_env_fallback(self):
        cfg = parse_config(["sweep"], environ={"LGSIM_SEED": "7"})
        assert cfg.seed == 7

    def test_seed_flag_beats_env(self):
        cfg = parse_config(["sweep", "--seed", "3"], environ={"LGSIM_SEED": "7"})
        assert cfg.seed == 3

    def test_seed_env_beats_config(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"seed": 9}))
        cfg = parse_config(
            ["sweep", "--config", str(cfg_file)], environ={"LGSIM_SEED": "7"}
        )
        assert cfg.seed == 7

    def test_bad_env_seed(self):
        with pytest.raises(UsageError, match="LGSIM_SEED"):
            parse_config(["sweep"], environ={"LGSIM_SEED": "many"})

    def test_populations_parsing(self):
        cfg = parse_config(["sweep", "--populations", "0.3,0.7"], environ={})
        assert cfg.populations == (0.3, 0.7)

    def test_populations_must_sum_to_one(self):
        with pytest.raises(UsageError, match="populations"):
            parse_config(["sweep", "--populations", "0.3,0.6"], environ={})

    def test_degrees_converts_supplied_angles_only(self):
        cfg = parse_config(
            ["sweep", "--degrees", "--theta-max", "180"], environ={}
        )
        assert abs(cfg.theta_max - math.pi) <= 1e-12
        assert cfg.theta_min == 0.0  # default stays in radians

    @pytest.mark.parametrize(
        "args,fragment",
        [
            (["sweep", "--steps", "1"], "--steps"),
            (["sweep", "--epsilon", "0"], "--epsilon"),
            (["sweep", "--epsilon", "1.2"], "--epsilon"),
            (["sweep", "--theta-min", "-1"], "--theta-min"),
            (["sweep", "--theta-min", "2", "--theta-max", "1"], "--theta-max"),
            (["noise-check", "--t2-probe", "0"], "--t2-probe"),
            (["noise-check", "--duration", "-1"], "--duration"),
            (["tomography", "--noise-sigma", "-0.5"], "--noise-sigma"),
            (["tomography", "--seed", "-2"], "--seed"),
            (["sweep", "--format", "svg"], "--output"),
            (["tomography", "--format", "svg", "-o", "x.svg"], "--format"),
        ],
    )
    def test_usage_errors_name_the_flag(self, args, fragment):
        with pytest.raises(UsageError, match=fragment.replace("-", "[-]")):
            parse_config(args, environ={})


class TestNonFiniteValues:
    """NaN and the infinities are usage errors that name the flag, whether
    they come from a flag or from a config file (``json`` parses ``NaN``,
    ``Infinity`` and ``-Infinity``)."""

    @pytest.mark.parametrize(
        "args,flag",
        [
            (["noise-check", "--t2-probe", "nan"], "--t2-probe"),
            (["noise-check", "--t2-system", "nan"], "--t2-system"),
            (["noise-check", "--duration", "nan"], "--duration"),
            (["noise-check", "--t2-probe", "inf"], "--t2-probe"),
            (["tomography", "--noise-sigma", "nan"], "--noise-sigma"),
            (["sweep", "--theta-max", "inf"], "--theta-max"),
            (["sweep", "--theta-min=-inf"], "--theta-min"),
            (["sweep", "--theta-max", "nan", "--degrees"], "--theta-max"),
            (["sweep", "--epsilon", "nan"], "--epsilon"),
            (["sweep", "--populations", "0.5,nan"], "--populations"),
            (["sweep", "--populations", "inf,0.5"], "--populations"),
        ],
    )
    def test_flag_exits_2_naming_the_flag(self, args, flag, capsys):
        assert main(args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text,flag",
        [
            ('{"epsilon": NaN}', "--epsilon"),
            ('{"theta_max": Infinity}', "--theta-max"),
            ('{"theta-min": -Infinity}', "--theta-min"),
            ('{"t2_system": NaN}', "--t2-system"),
            ('{"duration": Infinity}', "--duration"),
            ('{"noise_sigma": NaN}', "--noise-sigma"),
            ('{"populations": [0.5, NaN]}', "--populations"),
            ('{"steps": Infinity}', "--steps"),
            ('{"seed": NaN}', "--seed"),
        ],
    )
    def test_config_file_exits_2_naming_the_flag(self, text, flag, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(text)
        assert main(["sweep", "--config", str(cfg_file)]) == EXIT_USAGE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("pair", ['["0.5", "0.5"]', '[0.5, "0.5"]',
                                      '["0.5,0.5"]', '[true, false]', '[0, true]'])
    def test_config_populations_list_must_hold_numbers(self, pair, tmp_path, capsys):
        """A JSON list must hold numbers; only the "P0,P1" string form is text."""
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(f'{{"populations": {pair}}}')
        assert main(["sweep", "--config", str(cfg_file)]) == EXIT_USAGE
        assert "error: --populations: expected a number, got " in capsys.readouterr().err
        cfg_file.write_text('{"populations": "0.5,0.5"}')
        assert parse_config(["sweep", "--config", str(cfg_file)],
                            environ={}).populations == (0.5, 0.5)

    @pytest.mark.parametrize("pair", ["0.3,0.6", "-0.5,1.5"])
    def test_bad_populations_keep_their_message(self, pair):
        with pytest.raises(UsageError) as info:
            parse_config(["sweep", f"--populations={pair}"], environ={})
        assert str(info.value) == "--populations: populations must be >= 0 and sum to 1"


def outcome(argv, environ=None):
    """The RunConfig ``argv`` resolves to, or the usage error's message."""
    try:
        return parse_config(argv, environ={} if environ is None else environ)
    except UsageError as exc:
        return f"usage error: {exc}"


# Every option with a text form; --degrees is a switch with no value.
TEXT_OPTIONS = [f.name for f in fields(RunConfig) if f.name not in ("command", "degrees")]
OPTION_TEXT = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(0.0, 1.0).map(lambda p: f"{p!r},{1.0 - p!r}"),
    st.sampled_from(["2.7", "3.0", " 7", "1_000", "1e400", "0x10", "true", "",
                     "csv", "json", "svg", "xml", "0.3,0.7", "out.csv"]),
    st.text(max_size=6),
)


class TestOneConversionPath:
    """A flag, a --config value and LGSIM_SEED go through the same
    conversion: the same text gives the same RunConfig, or the same usage
    error naming the flag, whichever source it comes from."""

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(TEXT_OPTIONS), text=OPTION_TEXT)
    def test_flag_and_config_string_agree(self, name, text, tmp_path_factory):
        flag = "--" + name.replace("_", "-")
        # svg output needs a path; keep it out of the comparison.
        base = ["sweep", "--output=k.svg"] if name == "format" else ["sweep"]
        cfg_file = tmp_path_factory.getbasetemp() / "flag_vs_config.json"
        cfg_file.write_text(json.dumps({name: text}))
        from_flag = outcome([*base, f"{flag}={text}"])
        assert outcome([*base, "--config", str(cfg_file)]) == from_flag
        if isinstance(from_flag, str):
            assert flag in from_flag
        if name == "seed":
            from_env = outcome(base, {"LGSIM_SEED": text})
            if isinstance(from_env, str):
                from_env = from_env.replace("LGSIM_SEED", "--seed")
            assert from_env == from_flag

    @pytest.mark.parametrize("extra", [[], ["--theta-min=30", "--theta-max=90"]])
    def test_degrees_switch_equals_config_true(self, extra, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"degrees": True}))
        assert (outcome(["sweep", "--degrees", *extra])
                == outcome(["sweep", "--config", str(cfg_file), *extra]))

    @pytest.mark.parametrize(
        "text,flag",
        [
            ('{"steps": 2.7}', "--steps"),
            ('{"seed": 3.9}', "--seed"),
            ('{"degrees": "false"}', "--degrees"),
            ('{"steps": true}', "--steps"),
            ('{"output": 5}', "--output"),
        ],
    )
    def test_config_value_of_the_wrong_type_exits_2(self, text, flag, tmp_path,
                                                    capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(text)
        assert main(["sweep", "--config", str(cfg_file)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"{flag}: expected" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "args,message",
        [
            (["sweep", "--steps", "2.7"],
             "error: --steps: expected an integer, got '2.7'"),
            (["sweep", "--format", "xml"],
             "error: --format: must be csv, json or svg, got 'xml'"),
        ],
    )
    def test_malformed_flag_message_names_the_flag(self, args, message, capsys):
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("name", ["output", "theta_min", "populations"])
    def test_double_dash_flag_value_equals_the_config_string(self, name, tmp_path):
        """argparse stores "--flag=--" as []; the flag still reads as the
        text "--", as the config value does ("--" is a valid output path)."""
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({name: "--"}))
        flag = "--" + name.replace("_", "-")
        from_flag = outcome(["sweep", f"{flag}=--"])
        assert from_flag == outcome(["sweep", "--config", str(cfg_file)])
        if name == "output":
            assert from_flag.output == "--"

    def test_integral_json_number_is_an_integer(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text('{"steps": 11.0, "seed": 3}')
        cfg = parse_config(["sweep", "--config", str(cfg_file)], environ={})
        assert (cfg.steps, cfg.seed) == (11, 3)


class TestMainExitCodes:
    def test_usage_error_exits_2(self, capsys):
        assert main(["sweep", "--steps", "1"]) == EXIT_USAGE
        assert "--steps" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["1000001", "100000000000", str(10**20)])
    def test_too_many_steps_exit_2_naming_the_flag(self, steps, tmp_path, capsys):
        """A grid past a million steps is refused before anything is
        allocated, from a flag or from a config number (1e20 there)."""
        assert main(["sweep", "--steps", steps]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"--steps: must be <= 1000000, got {steps}" in captured.err
        assert captured.out == ""
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"steps": float(steps)}))
        assert main(["sweep", "--config", str(cfg_file)]) == EXIT_USAGE
        assert "--steps" in capsys.readouterr().err

    def test_a_million_steps_is_accepted(self):
        assert parse_config(["sweep", "--steps", "1000000"], environ={}).steps == 1_000_000

    def test_unknown_command_exits_2(self, capsys):
        assert main(["warble"]) == EXIT_USAGE

    def test_malformed_flag_value_exits_2(self, capsys):
        assert main(["sweep", "--steps", "abc"]) == EXIT_USAGE

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        code = main(["sweep", "--steps", "3", "--output", str(missing_dir)])
        assert code == EXIT_IO

    @pytest.mark.parametrize("command", ["sweep", "noise-check"])
    @pytest.mark.parametrize("eps,signal", [
        pytest.param(eps, signal, id=eps)
        for eps, signal in (("1e-300", "0"), ("5e-324", "0"), ("1e-16", "5.55e-17"),
                            ("1e-13", "9.99e-14"), ("1e-10", "1e-10"))])
    def test_vanishing_reference_exits_2(self, command, eps, signal, capsys):
        """An --epsilon too small for the reference normalization is a usage
        error naming the flag, exit 2 (it once exited 1 as an invariant
        failure).  The message names the signal it could not divide by and
        the floor (1e-300 is lost against the 1/2 of the probe's mixed
        part); at 1e-10 and 1e-13 round-off would spoil the normalized
        values."""
        assert main([command, "--steps", "3", "--epsilon", eps]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (f"error: --epsilon: reference signal vanished: "
                                f"|signal| = {signal} < 5e-07; cannot normalize\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["sweep", "correlations", "noise-check"])
    def test_smallest_epsilon_past_the_reference_floor_exits_0(self, command, capsys):
        """Bisecting --epsilon between 1e-7 (refused) and 1e-6 down to
        adjacent floats, where round-off in the reference decides: every run
        exits 0 or 2, never 1, and the smallest value not refused runs to
        exit 0."""
        def code(eps):
            result = main([command, "--steps", "3", "--epsilon", repr(eps)])
            assert result in (EXIT_OK, EXIT_USAGE), eps
            return result

        low, high = 1e-7, 1e-6
        assert (code(low), code(high)) == (EXIT_USAGE, EXIT_OK)
        while math.nextafter(low, high) < high:
            mid = 0.5 * (low + high)
            low, high = (mid, high) if code(mid) == EXIT_USAGE else (low, mid)
        assert abs(high - 5e-7) <= 1e-15
        assert "error: --epsilon: reference signal vanished" in capsys.readouterr().err

    def test_internal_invariant_failure_exits_1(self, monkeypatch, capsys):
        import lgsim.cli as cli_module

        def broken(cfg):
            raise ValueError("k is inconsistent with c12 + c23 - c13")

        monkeypatch.setattr(cli_module, "_compute", broken)
        assert main(["sweep", "--steps", "3"]) == EXIT_INVARIANT
        assert "invariant" in capsys.readouterr().err

    # Warnings are errors here, so the case shows that the overflow behind
    # the bad value (2 theta in the sweep) leaves stderr to the invariant line.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("args,message", [
        (["sweep", "--steps", "3", "--theta-max", "1e308"],
         "column 'k_analytic' is not finite: nan"),
    ])
    def test_non_finite_output_value_exits_1(self, args, message, fmt, capsys):
        assert main([*args, "--format", fmt]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.err == f"invariant failure: {message}\n"
        assert captured.out == ""

    # Past noise of about 1e154 the squares of the noisy deviation matrix
    # overflow; the overlap is scale-free, so the fidelity is printed, and
    # noise this far above the signal gives the same value at every sigma.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("sigma", ["1e154", "1e200", "1e300"])
    def test_tomography_noise_past_the_float_squares_exits_0(self, sigma, fmt, capsys):
        assert main(["tomography", "--noise-sigma", sigma, "--format", fmt]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        if fmt == "csv":
            assert captured.out.splitlines()[-1] == "fidelity,-0.315282272"
        else:
            [fidelity] = [row["value"] for row in json.loads(captured.out)["rows"]
                          if row["name"] == "fidelity"]
            assert fidelity == -0.315282272

    @pytest.mark.parametrize("args", [
        ["sweep", "--steps", "3", "--theta-max", "1e308"],
        ["correlations", "--steps", "3", "--theta-max", "1e308"],
        # the curve fits, but bisecting analytic_k past 9e307 meets NaN
        ["sweep", "--steps", "9", "--theta-min", "9.5e307", "--theta-max", "9.51e307"],
    ])
    def test_non_finite_svg_coordinate_exits_1_and_writes_no_file(
            self, args, tmp_path, capsys):
        """Near the float limit the x scale overflows; numpy's warnings are
        errors under the test settings, so stderr holds only the one line."""
        out = tmp_path / "x.svg"
        code = main([*args, "--format", "svg", "--output", str(out)])
        assert code == EXIT_INVARIANT
        captured = capsys.readouterr()
        message = ("k_fn is not finite at theta = 9.505625e+307: nan" if "9.5e307" in args
                   else "SVG x coordinate is not finite: inf")
        assert captured.err == f"invariant failure: {message}\n"
        assert not out.exists()


class TestSweepOutput:
    def test_csv_shape_and_header(self, tmp_path):
        code, text = run_cli(["sweep", "--steps", "3"], tmp_path, "s.csv")
        assert code == EXIT_OK
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0] == "theta,c12,c23,c13,k,k_analytic,abs_error"
        assert not text.endswith(",")
        assert "\r" not in text

    def test_landmark_row(self, tmp_path):
        code, text = run_cli(["sweep"], tmp_path, "s.csv")
        assert code == EXIT_OK
        lines = text.splitlines()[1:]
        assert len(lines) == 721
        target = next(
            line for line in lines
            if abs(float(line.split(",")[0]) - math.pi / 3) < 1e-9
        )
        fields = target.split(",")
        assert fields[4] == "1.500000000"
        assert max(float(line.split(",")[6]) for line in lines) <= 1e-9

    def test_all_rows_match_analytic(self, tmp_path):
        code, text = run_cli(["sweep", "--steps", "101"], tmp_path, "s.csv")
        assert code == EXIT_OK
        for line in text.splitlines()[1:]:
            assert float(line.split(",")[6]) <= 1e-9

    def test_json_round_trip(self, tmp_path):
        code, text = run_cli(
            ["sweep", "--steps", "5", "--format", "json"], tmp_path, "s.json"
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["config"]["command"] == "sweep"
        assert payload["config"]["steps"] == 5
        assert len(payload["rows"]) == 5
        for row in payload["rows"]:
            for key, value in row.items():
                assert value == round(value, 9), key

    @pytest.mark.parametrize("command", [
        "sweep", "correlations", "noninvasive-check", "tomography", "noise-check",
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_default_output_has_no_negative_zero(self, tmp_path, command, fmt):
        """Round-off such as -1e-17 (c13 at 3 pi/4) must not print as -0."""
        code, text = run_cli([command, "--format", fmt], tmp_path, "out")
        assert code == EXIT_OK
        if fmt == "csv":
            values = [v for line in text.splitlines()[1:] for v in line.split(",")]
        else:
            values = [json.dumps(v) for row in json.loads(text)["rows"]
                      for v in row.values()]
        zeros = [v for v in values if v.startswith("-") and float(v) == 0.0]
        assert zeros == []

    def test_byte_identical_reruns(self, tmp_path):
        _, first = run_cli(["sweep", "--steps", "9"], tmp_path, "a.csv")
        _, second = run_cli(["sweep", "--steps", "9"], tmp_path, "b.csv")
        assert first == second

    def test_epsilon_and_populations_do_not_change_k(self, tmp_path):
        _, base = run_cli(["sweep", "--steps", "9"], tmp_path, "a.csv")
        _, other = run_cli(
            ["sweep", "--steps", "9", "--epsilon", "0.3",
             "--populations", "0.2,0.8"],
            tmp_path, "b.csv",
        )
        k_base = [line.split(",")[4] for line in base.splitlines()[1:]]
        k_other = [line.split(",")[4] for line in other.splitlines()[1:]]
        assert k_base == k_other


def reference_clean(value: float) -> float:
    """The printing rule as it was applied one value at a time: round to the
    9 printed decimals, then drop the sign of zero."""
    return round(value, 9) + 0.0


def reference_fmt(value) -> str:
    if isinstance(value, str):
        return value
    return f"{reference_clean(float(value)):.9f}"


def printing_cases(rng, size):
    """Values from every corner of the printing rule: ``size`` each of random
    magnitudes, small negatives and decimal ties, then the signed zeros and
    1e300, shuffled."""
    magnitudes = 10.0 ** rng.uniform(-12.0, 3.0, size)
    signs = rng.choice([-1.0, 1.0], size)
    # n/1e9 + 5e-10 lies a binary hair above or below the decimal tie
    ties = (rng.integers(-10**12, 10**12, size) + 0.5) / 1e9
    return rng.permutation(np.concatenate([
        signs * magnitudes,
        -5e-10 * rng.uniform(0.0, 1.0, size),
        ties,
        np.repeat([0.0, -0.0, 1e300, -1e300], 25),
    ]))


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, reporting the first differing line rather than a diff
    of the whole text."""
    pairs = zip(got.split("\n"), want.split("\n"))
    assert next(((a, b) for a, b in pairs if a != b), None) is None
    assert got == want


class TestPrinting:
    """CSV and JSON print every number as the one-value-at-a-time rule did."""

    HEADER = ["name", "a", "b", "c", "d"]

    @pytest.fixture(scope="class")
    def table(self):
        values = printing_cases(np.random.default_rng(8), 34_000)
        columns = list(values.reshape(4, -1))
        labels = [f"row{i}" for i in range(len(columns[0]))]
        rows = list(zip(labels, *(column.tolist() for column in columns)))
        assert values.size >= 10**5
        return [labels, *columns], rows

    def test_csv_equals_the_reference(self, table):
        columns, rows = table
        want = "\n".join([",".join(self.HEADER)]
                         + [",".join(map(reference_fmt, row)) for row in rows]) + "\n"
        assert_same_text(emit_csv(self.HEADER, columns), want)

    def test_json_equals_the_reference(self, table):
        columns, rows = table
        cfg = RunConfig(command="sweep")
        want = json.dumps({
            "config": asdict(cfg),
            "rows": [dict(zip(self.HEADER, (v if isinstance(v, str)
                                           else reference_clean(v) for v in row)))
                     for row in rows],
        }, indent=2) + "\n"
        assert_same_text(emit_json(cfg, self.HEADER, columns), want)


class TestOtherCommands:
    def test_correlations_columns(self, tmp_path):
        code, text = run_cli(["correlations", "--steps", "5"], tmp_path, "c.csv")
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "theta,c12,c23,c13"
        assert len(lines) == 6

    def test_noninvasive_check_contrast(self, tmp_path):
        code, text = run_cli(["noninvasive-check"], tmp_path, "n.csv")
        assert code == EXIT_OK
        rows = dict(
            line.split(",") for line in text.splitlines()[1:]
        )
        assert float(rows["mixed"]) <= 1e-12
        assert float(rows["pure_zero"]) > 0.1

    def test_tomography_output(self, tmp_path):
        code, text = run_cli(["tomography"], tmp_path, "t.csv")
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "name,value"
        assert len(lines) == 18  # header + 16 coefficients + fidelity
        rows = dict(line.split(",") for line in lines[1:])
        assert rows["c_II"] == "1.000000000"
        assert rows["c_zI"] == "1.000000000"
        assert rows["fidelity"] == "1.000000000"

    def test_tomography_with_noise_is_seed_stable(self, tmp_path):
        args = ["tomography", "--noise-sigma", "0.03", "--seed", "11"]
        _, first = run_cli(args, tmp_path, "a.csv")
        _, second = run_cli(args, tmp_path, "b.csv")
        assert first == second
        rows = dict(line.split(",") for line in first.splitlines()[1:])
        assert 0.9 < float(rows["fidelity"]) < 1.0

    @pytest.mark.parametrize("sigma, seed", [(0.0, 42), (0.03, 11)])
    def test_tomography_fidelity_matches_the_library(self, tmp_path, sigma, seed):
        args = ["tomography", "--epsilon", "1", "--noise-sigma", str(sigma),
                "--seed", str(seed)]
        code, text = run_cli(args, tmp_path, "t.csv")
        assert code == EXIT_OK
        rows = dict(line.split(",") for line in text.splitlines()[1:])
        assert rows["fidelity"] == "%.9f" % tomography_fidelity_experiment(sigma, seed)

    def test_noise_check_ratio(self, tmp_path):
        code, text = run_cli(["noise-check"], tmp_path, "k.csv")
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "theta,k_ideal,k_noisy,ratio"
        theta, k_ideal, k_noisy, ratio = map(float, lines[1].split(","))
        assert abs(theta - math.pi / 3) <= 1e-9
        assert abs(k_ideal - 1.5) <= 1e-9
        assert ratio >= 0.98


class TestSvgOutput:
    def test_sweep_svg_structure(self, tmp_path):
        code, text = run_cli(
            ["sweep", "--steps", "181", "--format", "svg"], tmp_path, "k.svg"
        )
        assert code == EXIT_OK
        assert text.startswith("<svg ")
        assert text.count('class="violation"') == 2
        assert text.count("<polyline") == 1
        assert 'class="bound"' in text

    def test_correlations_svg_has_three_curves(self, tmp_path):
        code, text = run_cli(
            ["correlations", "--steps", "61", "--format", "svg"], tmp_path, "c.svg"
        )
        assert code == EXIT_OK
        assert text.count("<polyline") == 3

    def test_svg_is_self_contained(self, tmp_path):
        _, text = run_cli(
            ["sweep", "--steps", "181", "--format", "svg"], tmp_path, "k.svg"
        )
        assert "href" not in text
        assert "<image" not in text
        assert "url(" not in text
        assert "<script" not in text

    def test_svg_byte_identical(self, tmp_path):
        args = ["sweep", "--steps", "181", "--format", "svg"]
        _, first = run_cli(args, tmp_path, "a.svg")
        _, second = run_cli(args, tmp_path, "b.svg")
        assert first == second


# SHA-256 of each output, recorded before stacked products stopped going
# through numpy's per-matrix ``@``.  The kernels sum in a different order, so
# a value printed with 9 decimals could flip; these digests catch that.  CSV
# and JSON go to stdout (the JSON config holds the output path), SVG to a file.
_NON_DEFAULT_SWEEP = ("--epsilon", "0.37", "--populations", "0.2,0.8",
                      "--theta-min", "0.3", "--theta-max", "5.1")
GOLDEN_SHA256 = [
    (("sweep", "--format", "csv"),
     "451f10b5e6e8ff62e73ad72a058c96d78d2ab9c9e70b75fb6421d852150a029c"),
    (("sweep", "--format", "json"),
     "21ea291f3a83f6bd936496b1e33e282f046661b71f36f4a231dc20d6814ebee0"),
    (("correlations", "--format", "csv"),
     "378b3bbfdb25d7b8e7aaa1ef5ef38809b3cc879e1990cce773a009da923bf08e"),
    (("correlations", "--format", "json"),
     "928c8aa0bc5eb270bcb63a658b31293c24ffc733fce79c5665a09b19dae95c23"),
    (("noninvasive-check", "--format", "csv"),
     "366bada9b4735db0e311952b47a1526473389c41e79822ba2e77ee56a96ce6b9"),
    (("noninvasive-check", "--format", "json"),
     "c5c356cd83b65de29d00052699b1fd9d0b3cc94f33107c2cdf46cf54c7e0b9cc"),
    (("tomography", "--format", "csv"),
     "b341a485805ed8197cc53c688e91cdf2e100da55431d8ceb0e533862d62c3c03"),
    (("tomography", "--format", "json"),
     "f5b1fcb8e1b38e7afbf2b7493c73d3624c11632bc71af1c7ad3b4c637d725b27"),
    (("noise-check", "--format", "csv"),
     "cc3d6d988aba17f1a0aaf3536609d6f50a494777c6d3ae1557cba293d8eb7c8b"),
    (("noise-check", "--format", "json"),
     "225b99e1d4e98922c44e01955c6cee6d356fd3d6abf51826d7eb7def5a12cf08"),
    (("sweep", "--format", "svg"),
     "694a34daa159558915b00c70dbe12c3f056af2a1d6416c184d03a6bcdbc7d329"),
    (("correlations", "--format", "svg"),
     "a23bef0587d89d6199e6a0bb0feadd6909e532b7abc6659a95bf06c1a233f42a"),
    (("sweep", *_NON_DEFAULT_SWEEP, "--format", "csv"),
     "5526311175ad23f5ff8aba5e6cc8db68915db4fdb83e8610db32ab5f42065e1c"),
    (("sweep", *_NON_DEFAULT_SWEEP, "--format", "json"),
     "a8faa14cbe6a0697de20325978776b80298f58e45b2a7ca761212dad92028159"),
]


@pytest.mark.parametrize(
    "args,digest", GOLDEN_SHA256, ids=[" ".join(args) for args, _ in GOLDEN_SHA256]
)
def test_output_matches_recorded_digest(args, digest, tmp_path, capsysbinary,
                                        monkeypatch):
    monkeypatch.delenv("LGSIM_SEED", raising=False)
    if "svg" in args:
        out = tmp_path / "out.svg"
        assert main([*args, "--output", str(out)]) == EXIT_OK
        data = out.read_bytes()
    else:
        assert main(list(args)) == EXIT_OK
        data = capsysbinary.readouterr().out
    assert hashlib.sha256(data).hexdigest() == digest
