"""Config parsing, scenario construction, file emission, exit codes."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from biphoton import (
    ConfigError,
    Field,
    FourierLens,
    Mask,
    Propagate,
    SweepError,
    conditional_from_joint,
    joint_for_setup,
)
from biphoton.cli import (
    _SCHEMA,
    DETECTOR_SHAPES,
    MASK_KINDS,
    SCENARIOS,
    ScenarioConfig,
    build_setup,
    main,
    parse_config,
    run,
    serialize_config,
    verify_report,
)
from biphoton.retrodict import sweep_conditioning


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == ScenarioConfig()
        assert cfg.n == 512 and cfg.extent == 16.0
        assert cfg.k_z == 50.0 and cfg.f == 2.0 and cfg.kappa == 4.0
        assert cfg.detector_shape == "gaussian" and cfg.detector_sigma == 0.1
        assert cfg.detector_x1 == (0.0,)
        assert cfg.mask_kind == "none"
        assert cfg.output_stages is False

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# header\n\nk_z = 60.0  # inline\n")
        assert cfg.k_z == 60.0

    def test_non_power_of_two_reports_line(self):
        with pytest.raises(ConfigError, match="line 3") as err:
            parse_config("scenario = fig3-direct\nf = 2.0\ngrid.n = 500\n")
        assert "power of two" in str(err.value)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config("f = 1.0\nbogus.key = 3\n")

    def test_type_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("kappa = sideways\n")
        with pytest.raises(
            ConfigError, match="line 2: output.stages: expected a boolean, got 'maybe'"
        ):
            parse_config("k_z = 60.0\noutput.stages = maybe\n")

    def test_constraint_violations(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config("f = -1.0\n")
        with pytest.raises(ConfigError, match="one of"):
            parse_config("detector.shape = pyramid\n")
        with pytest.raises(ConfigError, match="^line 2: mask.kind = table requires"):
            parse_config("f = 1.0\nmask.kind = table\n")

    def test_position_sweep_list(self):
        cfg = parse_config("detector.x1 = -1.0, 0.0, 1.0\n")
        assert cfg.detector_x1 == (-1.0, 0.0, 1.0)

    def test_round_trip_is_lossless(self):
        # every scenario, with the window left to its scenario default
        # (fourier-2f resolves it from grid.n)
        for scenario in SCENARIOS:
            text = (
                f"scenario = {scenario}\n"
                "grid.n = 256\n"
                "kappa = 8.0\n"
                "detector.shape = point\n"
                "detector.x1 = 0.0, 0.5\n"
                "mask.kind = double-slit\n"
                "mask.width = 0.4\n"
                "mask.separation = 2.0\n"
                "k_z = 100.0\n"
            )
            cfg = parse_config(text)
            again = parse_config(serialize_config(cfg))
            assert again == cfg, scenario
            assert build_setup(again).grid == build_setup(cfg).grid, scenario

    def test_docs_list_every_schema_key(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Config format", 1)[1].split("\n#", 1)[0]
        rows = dict(re.findall(r"^\| `([^`]+)` \|(.*)\|$", section, re.MULTILINE))
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--help"])
        assert exit_.value.code == 0
        help_keys = set(
            re.findall(r"^  ([\w.]+) =", capsys.readouterr().out, re.MULTILINE)
        )
        assert set(rows) == set(_SCHEMA)
        assert help_keys == set(_SCHEMA)
        # every choice of a choice key is documented, and nothing else
        for key, table in (
            ("scenario", SCENARIOS),
            ("detector.shape", DETECTOR_SHAPES),
            ("mask.kind", MASK_KINDS),
        ):
            assert re.findall(r"`([^`]+)`", rows[key]) == list(table), key

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError, match="line 3: grid.n is already set at line 1"):
            parse_config("grid.n = 256\nf = 1.0\ngrid.n = 512\n")

    def test_removed_output_format_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match="line 1: unknown key 'output.format'"):
            parse_config("output.format = csv\n")

    def test_removed_half_factor_is_an_unknown_key(self):
        # the textbook z/2 phase is k_z doubled
        with pytest.raises(
            ConfigError, match="line 2: unknown key 'fresnel_half_factor'"
        ):
            parse_config("k_z = 100.0\nfresnel_half_factor = true\n")

    def test_several_bad_lines_report_first_key_in_schema_order(self):
        with pytest.raises(ConfigError, match="^line 2: grid.n: must be a power") as err:
            parse_config("f = -1.0\ngrid.n = 500\n")
        assert (err.value.key, err.value.line) == ("grid.n", 2)

    # near misses of real names: no fallback branch may take them
    @pytest.mark.parametrize(
        "field, key, bad",
        [
            ("scenario", "scenario", "fourier2f"),
            ("detector_shape", "detector.shape", "Gaussian"),
            ("mask_kind", "mask.kind", "double_slit"),
        ],
    )
    def test_config_built_in_code_rejects_unknown_choice(self, field, key, bad):
        with pytest.raises(ConfigError, match=f"^{key}: expected one of .*{bad!r}"):
            ScenarioConfig(**{field: bad})


# one bad value per config key, as a config built in code might carry it
BAD_VALUES = {
    "scenario": "fourier2f",
    "grid.n": 500,
    "grid.extent": 0.0,
    "k_z": -50.0,
    "f": float("nan"),
    "kappa": "wide",
    "detector.shape": "Gaussian",
    "detector.sigma": 0,
    "detector.width": float("inf"),
    "detector.x1": (),  # was a bare IndexError in build_setup
    "mask.kind": "double_slit",
    "mask.width": -1.0,  # was an all-zero slit
    "mask.separation": np.float64(-2.0),
    "mask.sigma": None,
    "mask.file": "mask.csv  # a comment",
    "output.path": "out\nmore",
    "output.stages": "maybe",
}


class TestConfigBuiltInCode:
    @pytest.mark.parametrize("key", list(_SCHEMA))
    def test_bad_value_names_its_key(self, key):
        attr, _ = _SCHEMA[key]
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: ") as err:
            ScenarioConfig(**{attr: BAD_VALUES[key]})
        assert err.value.key == key and err.value.line is None

    # grid.extent = None is the scenario's own window
    @pytest.mark.parametrize("key", [k for k in _SCHEMA if k != "grid.extent"])
    def test_none_names_its_key(self, key):
        attr, _ = _SCHEMA[key]
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: expected a value, got None"):
            ScenarioConfig(**{attr: None})

    def test_values_are_normalized_as_parsed(self):
        cfg = ScenarioConfig(
            n=np.int64(256),
            k_z=100,
            detector_sigma=np.float64(0.2),
            detector_x1=[np.float64(-0.5), 0, 0.5],
            output_stages="yes",
        )
        text = (
            "grid.n = 256\nk_z = 100\ndetector.sigma = 0.2\n"
            "detector.x1 = -0.5, 0, 0.5\noutput.stages = yes\n"
        )
        assert cfg == parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg
        assert "detector.sigma = 0.2\n" in serialize_config(cfg)
        assert type(cfg.n) is int and type(cfg.k_z) is float
        assert cfg.detector_x1 == (-0.5, 0.0, 0.5)
        assert all(type(p) is float for p in cfg.detector_x1)
        assert cfg.output_stages is True

    def test_bool_and_float_values_serialize_as_parsed(self):
        # a bool is written lower case; a numpy float keeps every digit of
        # its float value, not numpy's shortest text for its own width
        cfg = ScenarioConfig(output_stages=True, detector_sigma=np.float32(0.1))
        assert cfg.detector_sigma == float(np.float32(0.1)) != 0.1
        text = serialize_config(cfg)
        assert "output.stages = true\n" in text
        assert f"detector.sigma = {float(np.float32(0.1))!r}\n" in text
        assert parse_config(text) == cfg

    def test_help_lists_the_choices_of_each_choice_key(self, capsys):
        # e.g. "  scenario = fig3-direct   # fig3-direct | fourier-2f | custom";
        # a key with no choices gets no comment
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        lines = {
            line.split(" = ")[0].strip(): line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")
        }
        for key, table in (
            ("scenario", SCENARIOS),
            ("detector.shape", DETECTOR_SHAPES),
            ("mask.kind", MASK_KINDS),
        ):
            assert lines[key].endswith(f"# {' | '.join(table)}"), key
        assert lines["grid.n"] == "  grid.n = 512"


class TestBuildSetup:
    def test_fig3_no_mask_has_two_arm1_elements(self):
        setup = build_setup(parse_config("scenario = fig3-direct\n"))
        assert len(setup.arm1) == 2
        assert isinstance(setup.arm1[0], Propagate)
        assert isinstance(setup.arm1[1], FourierLens)
        assert not any(isinstance(e, Mask) for e in setup.arm1)
        assert setup.arm2 == ()

    def test_fig3_double_slit_mask_is_binary(self):
        setup = build_setup(
            parse_config("scenario = fig3-direct\nmask.kind = double-slit\n")
        )
        mask = setup.arm1[-1]
        assert isinstance(mask, Mask)
        vals = np.unique(np.abs(mask.t.values))
        assert set(np.round(vals, 12)) <= {0.0, 1.0}

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_the_scenario_places_the_mask_once(self, scenario):
        cfg = ScenarioConfig(scenario=scenario, mask_kind="slit")
        setup = build_setup(cfg)
        arms = setup.arm1, setup.arm2
        (mask,) = [e for arm in arms for e in arm if isinstance(e, Mask)]
        assert arms == SCENARIOS[scenario].arms(cfg, (mask,))
        # taking the mask out leaves the scenario's optics as they were
        bare = tuple(tuple(e for e in arm if e is not mask) for arm in arms)
        assert bare == SCENARIOS[scenario].arms(cfg, ())
        # every built-in scenario puts its mask at the crystal, last in arm 1
        assert arms[0][-1] is mask

    def test_fourier_scenario_defaults_to_self_conjugate_window(self):
        setup = build_setup(parse_config("scenario = fourier-2f\n"))
        g = setup.grid
        assert g.extent == pytest.approx(np.sqrt(2 * np.pi * g.n))
        assert g.dx == pytest.approx(g.dk)

    def test_fourier_scenario_respects_explicit_extent(self):
        setup = build_setup(
            parse_config("scenario = fourier-2f\ngrid.extent = 40.0\n")
        )
        assert setup.grid.extent == 40.0

    def test_unresolvable_detector_rejected(self):
        cfg = parse_config("grid.n = 64\ndetector.sigma = 0.01\n")
        from biphoton import run_retrodictive

        with pytest.raises(ValueError, match="unresolvable"):
            run_retrodictive(build_setup(cfg))

    def test_mask_table_round_trip(self, tmp_path):
        g_n = 64
        rows = 0.5 * np.ones(g_n)
        path = tmp_path / "mask.csv"
        path.write_text("\n".join(f"{v},0.0" for v in rows) + "\n")
        cfg = parse_config(
            f"grid.n = {g_n}\nmask.kind = table\nmask.file = {path}\n"
        )
        setup = build_setup(cfg)
        np.testing.assert_allclose(setup.arm1[-1].t.values, 0.5)

    def test_mask_table_bound_checked(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_text("\n".join("1.5" for _ in range(64)) + "\n")
        cfg = parse_config(f"grid.n = 64\nmask.kind = table\nmask.file = {path}\n")
        with pytest.raises(ConfigError, match="<= 1") as err:
            build_setup(cfg)
        assert str(err.value).startswith("mask.file: ")
        path.write_text("0.5\n")
        with pytest.raises(ConfigError, match="^mask.file: .*1 rows; grid.n needs 64"):
            build_setup(cfg)
        for row in ("0.5, oops", "1,0,7"):
            path.write_text(f"0.5\n{row}\n")
            bad_row = f"^mask.file: bad row '{row}' at line 2 "
            with pytest.raises(ConfigError, match=bad_row):
                build_setup(cfg)

    @pytest.mark.parametrize("row", ["nan", "inf", "0.5, -inf", "-nan, 0.0"])
    def test_mask_table_rejects_non_finite_values(self, tmp_path, capsys, row):
        path = tmp_path / "mask.csv"
        path.write_text("0.5\n# comment\n" + row + "\n" + "0.5\n" * 61)
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"grid.n = 64\nmask.kind = table\nmask.file = {path}\n")
        with pytest.raises(ConfigError) as err:
            build_setup(parse_config(cfgfile.read_text()))
        assert str(err.value) == (
            f"mask.file: non-finite value {row!r} at line 3 of {str(path)!r}"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 1
        assert "mask.file: non-finite value" in capsys.readouterr().err
        assert not out.exists()


class TestRunEmission:
    def test_single_run_csv(self, tmp_path):
        cfg = parse_config("grid.n = 256\ndetector.sigma = 0.2\n")
        written = run(cfg, out_dir=str(tmp_path))
        assert [p.name for p in written] == ["conditional.csv"]
        lines = written[0].read_text().splitlines()
        assert lines[0] == "x2,probability_density"
        assert len(lines) == 257
        data = np.loadtxt(written[0], delimiter=",", skiprows=1)
        dx = 16.0 / 256
        assert abs(data[:, 1].sum() * dx - 1.0) <= 1e-10

    def test_csv_round_trip_full_precision(self, tmp_path):
        cfg = parse_config("grid.n = 256\ndetector.sigma = 0.2\n")
        setup = build_setup(cfg)
        from biphoton import run_retrodictive

        expected = run_retrodictive(setup).distribution.density
        (path,) = run(cfg, out_dir=str(tmp_path))
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 1], expected)

    def test_sweep_emits_suffixed_files(self, tmp_path):
        cfg = parse_config(
            "grid.n = 256\ndetector.sigma = 0.2\ndetector.x1 = -1.0, 0.0, 1.0\n"
        )
        written = run(cfg, out_dir=str(tmp_path))
        names = sorted(p.name for p in written)
        assert names == [  # sorted: '+' comes before '-'
            "conditional_x1_+0.0000.csv",
            "conditional_x1_+1.0000.csv",
            "conditional_x1_-1.0000.csv",
        ]

    def test_output_path_and_its_overrides(self, tmp_path, capsys):
        # output.path is where a run writes; out_dir, and --out on the
        # command line, write elsewhere and leave output.path untouched
        by_path = tmp_path / "by-path"
        text = f"grid.n = 256\ndetector.sigma = 0.2\noutput.path = {by_path}\n"
        cfg = parse_config(text)
        assert run(cfg) == [by_path / "conditional.csv"]
        expected = (by_path / "conditional.csv").read_bytes()
        (by_path / "conditional.csv").unlink()
        written = run(cfg, out_dir=str(tmp_path / "by-arg"))
        assert written == [tmp_path / "by-arg" / "conditional.csv"]
        assert written[0].read_bytes() == expected
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(text)
        out = tmp_path / "by-flag"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"{out / 'conditional.csv'}\n"
        assert (out / "conditional.csv").read_bytes() == expected
        assert list(by_path.iterdir()) == []

    def test_stage_emission(self, tmp_path):
        cfg = parse_config(
            "grid.n = 256\ndetector.sigma = 0.2\noutput.stages = true\n"
        )
        written = run(cfg, out_dir=str(tmp_path))
        spath = [p for p in written if p.suffix == ".json"][0]
        payload = json.loads(spath.read_text())
        names = [s["name"] for s in payload["stages"]]
        assert names[0] == "alpha"
        assert "beta_1" in names and names[-1] == "beta_2"
        assert len(payload["x"]) == 256


def pinned_csv(grid, density) -> str:
    """CSV text as written one f-string per row."""
    rows = "".join(f"{float(x)!r},{float(d)!r}\n" for x, d in zip(grid.x, density))
    return "x2,probability_density\n" + rows


def pinned_stages(result) -> str:
    """stages.json text: json.dumps of the payload, stage by stage."""

    def entry(name, f):
        return {
            "name": name,
            "magnitude": np.abs(f.values).tolist(),
            "phase": np.angle(f.values).tolist(),
        }

    stages = [entry("alpha", result.alpha)]
    stages += [entry(f"alpha_{i}", f) for i, f in enumerate(result.arm1_stages, 1)]
    stages.append(entry("beta_1", result.beta1))
    stages += [entry(f"beta_1_{i}", f) for i, f in enumerate(result.arm2_stages, 1)]
    stages.append(entry("beta_2", result.beta2))
    payload = {
        "x": result.beta2.grid.x.tolist(),
        "stages": stages,
        "edge_fractions": result.edge_fractions,
    }
    return json.dumps(payload)


class TestOutputBytes:
    """Every written byte, against text built row by row from the
    library's results: a change of number format fails here even where
    reloading the values would not notice."""

    @pytest.mark.parametrize(
        "text",
        [
            # fig3-direct double-slit sweep with stages
            "grid.n = 256\ndetector.sigma = 0.2\nmask.kind = double-slit\n"
            "detector.x1 = -0.5, 0.0, 0.5\noutput.stages = true\n",
            # fourier-2f: arm 2 is not empty, so beta_1_1 is written
            "scenario = fourier-2f\ngrid.n = 256\nmask.kind = slit\n"
            "mask.width = 0.8\ndetector.shape = point\noutput.stages = true\n",
            # densities exactly 0 outside the slits
            "scenario = custom\ngrid.n = 256\nmask.kind = double-slit\n"
            "detector.shape = tophat\ndetector.width = 4\n"
            "detector.x1 = -0.5, 0.0, 0.5\n",
        ],
    )
    def test_files_match_row_by_row_text(self, tmp_path, text):
        cfg = parse_config(text)
        setup = build_setup(cfg)
        results = sweep_conditioning(setup, cfg.detector_x1)
        written = run(cfg, out_dir=str(tmp_path))
        sweep = len(results) > 1
        expected = {}
        for x1, r in zip(cfg.detector_x1, results):
            tag = f"_x1_{x1:+.4f}" if sweep else ""
            expected[f"conditional{tag}.csv"] = pinned_csv(setup.grid, r.distribution.density)
            if cfg.output_stages:
                expected[f"stages{tag}.json"] = pinned_stages(r)
        assert sorted(p.name for p in written) == sorted(expected)
        for p in written:
            assert p.read_bytes() == expected[p.name].encode(), p.name
        stages = [json.loads(t) for n, t in expected.items() if n.endswith(".json")]
        if cfg.scenario == "fourier-2f":
            assert "beta_1_1" in [s["name"] for s in stages[0]["stages"]]
        if cfg.scenario == "custom":
            assert all(np.count_nonzero(r.distribution.density == 0) > 128 for r in results)


class TestMainExitCodes:
    def test_run_success(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("grid.n = 256\ndetector.sigma = 0.2\n")
        code = main(["run", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == 0
        assert "conditional.csv" in capsys.readouterr().out

    def test_validation_error_is_exit_1(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("grid.n = 500\n")
        assert main(["run", "--config", str(cfgfile)]) == 1

    def test_missing_config_is_exit_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_dark_conditional_is_exit_2(self, tmp_path, capsys):
        # an opaque table mask blocks everything
        mask = tmp_path / "mask.csv"
        mask.write_text("\n".join("0.0" for _ in range(256)) + "\n")
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            "grid.n = 256\ndetector.sigma = 0.2\n"
            f"mask.kind = table\nmask.file = {mask}\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 2
        assert not out.exists()

    def test_all_dark_sweep_is_exit_2(self, tmp_path, capsys):
        mask = tmp_path / "mask.csv"
        mask.write_text("\n".join("0.0" for _ in range(256)) + "\n")
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            "grid.n = 256\ndetector.sigma = 0.2\ndetector.x1 = -0.5, 0.0, 0.5\n"
            f"mask.kind = table\nmask.file = {mask}\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(f"dark conditional at x1={x1}:" in err for x1 in ("-0.5", "0", "0.5"))
        assert not out.exists()

    def test_dark_and_leaking_sweep_is_exit_1(self, tmp_path, capsys):
        # the mask is open on x > 0 only: x1 = -3 is dark, and the wide
        # top-hat at x1 = 6.2 reaches the window edge
        x = (np.arange(256) - 128) * (16.0 / 256)
        mask = tmp_path / "mask.csv"
        mask.write_text("".join(f"{float(v)}\n" for v in x > 0))
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            "scenario = custom\ngrid.n = 256\ndetector.shape = tophat\n"
            "detector.width = 4\ndetector.x1 = -3, 6.2\n"
            f"mask.kind = table\nmask.file = {mask}\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "dark conditional at x1=-3" in err and "x1=6.2: conditioned" in err
        assert not out.exists()

    @pytest.mark.parametrize("positions", ["0.00001, 0.00002, 0.5", "0.5, 0.5"])
    def test_colliding_sweep_names_are_exit_1(self, tmp_path, capsys, positions):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            f"grid.n = 256\ndetector.sigma = 0.2\ndetector.x1 = {positions}\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        first, second = positions.split(",")[:2]
        assert "detector.x1" in err
        assert f"{float(first)!r} and {float(second)!r}" in err
        assert not out.exists()

    def test_sampling_guard_is_exit_1_and_names_config_keys(self, tmp_path, capsys):
        # f = 10 on the default 512-point, extent-16 grid undersamples the
        # focal propagation; the fix keeps grid.extent / grid.n fixed
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("f = 10\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "grid.n >= 1024" in err
        assert "grid.extent = 32" in err and "grid.extent / grid.n = 0.03125" in err
        assert not out.exists()
        # a sweep reports the setup's error once, not once per position
        sweep = tmp_path / "s.cfg"
        sweep.write_text("f = 10\ndetector.x1 = -0.5, 0.0, 0.5\n")
        assert main(["run", "--config", str(sweep), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("undersampled") == 1 and "grid.n >= 1024" in err
        assert not out.exists()
        follow = tmp_path / "d.cfg"
        follow.write_text("f = 10\ngrid.n = 1024\ngrid.extent = 32\n")
        assert main(["run", "--config", str(follow), "--out", str(tmp_path)]) == 0

    def test_position_outside_central_window_names_keys(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("grid.n = 256\ndetector.sigma = 0.2\ndetector.x1 = 7.0\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "central 80%" in err
        assert "detector.x1" in err and "grid.extent" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "detector, key",
        [
            ("detector.sigma = 0.01", "detector.sigma"),
            ("detector.shape = tophat\ndetector.width = 0.2", "detector.width"),
        ],
    )
    def test_unresolvable_detector_names_keys(self, tmp_path, capsys, detector, key):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"grid.n = 64\n{detector}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "unresolvable" in err and "minimum is 2*dx" in err
        assert key in err and "grid.n at fixed grid.extent" in err
        assert not out.exists()

    def test_unresolvable_pump_names_kappa(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("grid.n = 64\ndetector.sigma = 0.6\nkappa = 0.1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "kappa = 0.1 unresolvable" in err and "minimum is 2*dx = 0.5" in err
        assert "raise kappa, or raise grid.n at fixed grid.extent" in err
        assert "1/kappa" not in err
        assert not out.exists()

    def test_pump_wider_than_window_names_kappa(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("grid.n = 64\ndetector.sigma = 0.6\nkappa = 20\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "kappa = 20 exceeds the window" in err and "extent/2 = 8" in err
        assert "lower kappa, or raise grid.extent" in err
        assert "1/kappa" not in err
        assert not out.exists()

    def test_edge_leakage_names_grid_extent(self, tmp_path, capsys):
        # a near-window-wide top-hat against a wide pump spot reaches the
        # window edge
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(
            "scenario = custom\ngrid.n = 256\nkappa = 8\n"
            "detector.shape = tophat\ndetector.width = 15\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "edge energy fraction" in err and "grid.extent" in err
        assert not out.exists()

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "fig3-direct" in out and "fourier-2f" in out and "custom" in out
        names = [line.split()[0] for line in out.splitlines() if not line[0].isspace()]
        assert names == list(SCENARIOS)


class TestVerify:
    def test_equivalence_holds_under_half_factor_convention(self):
        from biphoton import conditional_from_joint, joint_for_setup, run_retrodictive

        setup = build_setup(parse_config(
            "grid.n = 256\ndetector.sigma = 0.2\nmask.kind = double-slit\n"
            "k_z = 100.0\n"
        ))
        retro = run_retrodictive(setup).distribution
        oracle = conditional_from_joint(joint_for_setup(setup), 0.0)
        assert np.max(np.abs(retro.density - oracle.density)) <= 1e-8

    def test_fast_verify_is_deterministic_and_green(self):
        from biphoton.cli import verify_report

        a = verify_report(fast=True)
        b = verify_report(fast=True)
        assert [c.name for c in a] == [c.name for c in b]
        assert [c.value for c in a] == [c.value for c in b]
        assert all(c.passed for c in a)

    def test_check_names_and_order_are_pinned(self):
        from biphoton.cli import verify_report

        fast = [
            "equivalence[fig3-direct/no-mask]",
            "equivalence[fig3-direct/double-slit]",
            "equivalence[fourier-2f/single-slit]",
            "finite-dim-equivalence[30 instances]",
        ]
        full = fast[:3] + [
            "finite-dim-equivalence[100 instances]",
            "ghost-image[point]",
            "ghost-image[sigma-sweep-monotone]",
            "fourier-image[point]",
            "focal-closed-form[sigma 0.5,1,2]",
            "washout[MI, sigma=0.1]",
            "washout[MI, sigma=L/4]",
        ]
        assert [c.name for c in verify_report(fast=True)] == fast
        assert [c.name for c in verify_report(fast=False)] == full

    def test_verify_command_exit_code(self, capsys):
        assert main(["verify", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_failed_check_is_exit_3(self, monkeypatch, capsys):
        from biphoton import cli

        # a check prints its detail in brackets, and only if it has one
        checks = [
            cli._check("fine", 0.001, 0.01),
            cli._check("planted", 0.02, 0.01, detail="what went wrong"),
        ]
        monkeypatch.setattr(cli, "verify_report", lambda fast=False: checks)
        assert main(["verify"]) == 3
        passed, failed, last = capsys.readouterr().out.splitlines()
        assert passed == "PASS  fine: 1.000e-03 (threshold <= 0.01, margin +9.000e-03)"
        assert failed == (
            "FAIL  planted: 2.000e-02 (threshold <= 0.01, margin -1.000e-02)"
            "  [what went wrong]"
        )
        assert last.startswith("verify FAILED in ")

    def test_report_prints_stored_direction_and_margin(self, capsys):
        from biphoton.cli import _check, _print_report

        checks = [
            _check("floor", 0.8, 0.5, larger_is_better=True),
            _check("ceiling", 0.02, 0.01),
        ]
        assert [c.passed for c in checks] == [True, False]
        assert [c.relation for c in checks] == [">=", "<="]
        assert checks[0].margin == pytest.approx(0.3)
        assert checks[1].margin == pytest.approx(-0.01)
        assert _print_report(checks) is False
        first, second = capsys.readouterr().out.splitlines()
        assert first.startswith("PASS  floor") and ">= 0.5, margin +3.000e-01" in first
        assert second.startswith("FAIL  ceiling") and "<= 0.01, margin -1.000e-02" in second


def test_the_library_never_prints(tmp_path, capfd):
    # the library reports through return values and exceptions; only
    # main() renders, so nothing reaches either stream
    cfg = parse_config(
        "grid.n = 256\ndetector.sigma = 0.2\ndetector.x1 = -0.5, 0.5\noutput.stages = true\n"
    )
    setup = build_setup(cfg)
    assert len(run(cfg, str(tmp_path / "out"))) == 4
    g = setup.grid
    dark = replace(setup, arm1=(*setup.arm1, Mask(Field(g, np.zeros(g.n)))))
    with pytest.raises(SweepError):
        sweep_conditioning(dark, [-0.5, 0.5])
    conditional_from_joint(joint_for_setup(setup), 0.5)
    assert all(c.passed for c in verify_report(fast=True))
    assert capfd.readouterr() == ("", "")
