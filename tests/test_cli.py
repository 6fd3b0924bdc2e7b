import contextlib
import csv
import hashlib
import io
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from d2dsim import cli, engine
from d2dsim.cli import ConfigError, _fmt, config_echo_lines, main, parse_config
from d2dsim.engine import (
    SINR_SAMPLE_DTYPE,
    THROUGHPUT_SAMPLE_DTYPE,
    ExperimentConfig,
    ExperimentReport,
    expected_sinr_sample_count,
)
from d2dsim.layout import build_hex_grid
from d2dsim.radio import PowerControlConfig
from d2dsim.scheduling import CoordinationMode, run_pf_uplink

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# A run that warns (numpy overflow, invalid value) fails here.
pytestmark = pytest.mark.filterwarnings("error")


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


SMALL_SINR = """
experiment = sinr
isd_m = 1732
n_rings = 1
n_d2d_tx_per_sector = 3
coordination = tdm
alpha_list = 1.0
snr_target_db_list = 10
no_power_control = true
n_drops = 2
seed = 42
"""

SMALL_TPUT = """
experiment = throughput
isd_m = 500
n_rings = 0
wraparound = false
n_d2d_tx_per_sector = 5
d2d_range_m = 50
alpha_list = 1.0
snr_target_db_list = 10
no_power_control = false
n_drops = 2
n_subframes = 200
k_d2d = 2
seed = 42
"""

# SHA-256 digests of each preset's outputs at 2 drops, manifest without its #
# lines. The throughput CSV, summary and manifest digests were recorded before
# the PF loop's rate memo; the rest before the CSV, summary, diagnostics and
# manifest writers became text producers.
PRESET_DIGESTS = {
    "sinr_dense_discovery_load": {
        "sinr_samples.csv": "a96e6715651f5524cf3b3896bf6a96367e92f98ed6b491ac50005e8570b5f0fe",
        "summary.txt": "ea89153dfac0fc58b90d6446126623b2a24aae05c166d716d36988c7252a5c09",
        "diagnostics.txt": "7d244a16d257e1ee7d3314e299194b015685e63a4828a5eef878540a8201b944",
        "manifest.txt": "73faa7f7eeb5032afa35ffb01de7950e884ebd80855e2da94e97ec6f1a82da7e",
    },
    "sinr_dense_reuse2": {
        "sinr_samples.csv": "b034d1fb5dec7332e61f2b737587f11828b1caa61a19a597438d7252cc316037",
        "summary.txt": "e7b416778f1383182222099f124903dbeb6b2fa0ff368e3d66573ccf17d35b9e",
        "diagnostics.txt": "8e6d46e7fe8abd712b0bc9d132551e3d403d4cfa8fdd423959a25ed23b681e53",
        "manifest.txt": "850331136b98345ff42b96b79cc1f3a780a45b323ceb7ebb5a030783f177ae60",
    },
    "sinr_dense_single_link": {
        "sinr_samples.csv": "e0db7a979d588aa8676263222b81036dae887068f7635229074a5930ff05bbad",
        "summary.txt": "4d3b1c46ac94eb40cf8ac3e50afde65bc37aad34a61813be3008982476061e66",
        "diagnostics.txt": "9e7b15f7c7faf2408820b415a4b7881375b8c647b38366929ecf40336463e666",
        "manifest.txt": "63088bd66a39470f9113905909d6683bdc33184f57203cf29a70671ee6a31d83",
    },
    "sinr_wide_area_tdm": {
        "sinr_samples.csv": "2e37855301f843231119a2595d033ef924680fdb1c735bda3daa4174a2eb1c80",
        "summary.txt": "2d3dd07294a28057466940b056ff116d3a1f34a8c78162ebf57706a50446f7c1",
        "diagnostics.txt": "f4c1698c8f284ee53c929575a04e9f59e92e9bccdfdde9f0a1921b4fd75fc675",
        "manifest.txt": "91da449d07235337b16ea50eddf8a90ad4b2bd36754f6411213d8dd74591884b",
    },
    "sinr_wide_area_uncoordinated": {
        "sinr_samples.csv": "696718ee88da498019ab0e11cecbc5fffcb1c3d4ddbb6421310afabf4f06c87c",
        "summary.txt": "273d2931094586a000b30714b713e1a8c48079761ed31fa218cd83290aa83a29",
        "diagnostics.txt": "f4c1698c8f284ee53c929575a04e9f59e92e9bccdfdde9f0a1921b4fd75fc675",
        "manifest.txt": "512f51137d5644f08c371f43d50f662d01c8f6f4f0a0f462410f8772a4c90c17",
    },
    "throughput_offload": {
        "throughput.csv": "33f4577d887cc26c6f0eabfb7d518f30081f6ab859e4ee6f8e20a10e98063cf0",
        "summary.txt": "f0f96373cbea71d0ba2f8c6335420b265612424fe54969d139af4813caab3857",
        "diagnostics.txt": "7229f1c4a6de72232c0fb219a37d5ee85c01222b08509425de751b1c11e94653",
        "manifest.txt": "16bc6ee85b24e10bc87726248524e3a4cb5bad1967fad822fc7abe21414bf754",
    },
}


class TestParseConfig:
    def test_values_round_trip(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, SMALL_SINR))
        assert cfg.isd_m == 1732.0
        assert cfg.n_rings == 1
        assert cfg.coordination == CoordinationMode("tdm")
        assert cfg.alpha_list == (1.0,)
        assert cfg.seed == 42

    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "# nothing here\n\n"))
        assert cfg == ExperimentConfig()

    def test_reuse_coordination(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "coordination = reuse:2\n"))
        assert cfg.coordination == CoordinationMode("reuse", 2)

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, "isd_m = 500\nbogus_key = 1\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.line == 2
        assert "bogus_key" in str(err.value)

    def test_malformed_value_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, "\nisd_m = not_a_number\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.line == 2

    def test_missing_equals_reports_line(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, "isd_m 500\n"))
        assert err.value.line == 1

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, "seed = 1\nseed = 2\n"))
        assert err.value.line == 2

    def test_contradiction_reports_relevant_line(self, tmp_path):
        text = "experiment = throughput\nn_d2d_tx_per_sector = 4\nk_d2d = 9\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert err.value.line == 3

    def test_non_finite_list_reports_its_own_line(self, tmp_path):
        text = "isd_m = 500\nalpha_list = nan\nsnr_target_db_list = 10\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert err.value.line == 2
        assert "alpha_list must be finite" in str(err.value)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_invalid_utf8_reports_its_line(self, tmp_path, newline):
        path = tmp_path / "bad.cfg"
        path.write_bytes(newline.join([b"isd_m = 500", b"# caf\xc3\xa9", b"seed = 4\xff2", b""]))
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert err.value.line == 3
        assert "UTF-8" in str(err.value)

    def test_echo_round_trips(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, SMALL_TPUT))
        echoed = "\n".join(config_echo_lines(cfg)) + "\n"
        cfg2 = parse_config(write_cfg(tmp_path, echoed, name="echo.cfg"))
        assert cfg2 == cfg


class TestMain:
    def test_sinr_run_writes_expected_files(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, SMALL_SINR + f"out_dir = {tmp_path}/out\n")
        assert main([cfg_path]) == 0
        out = tmp_path / "out"
        assert (out / "sinr_samples.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "manifest.txt").exists()
        diagnostics = (out / "diagnostics.txt").read_text().splitlines()
        assert [line.split(" = ")[0] for line in diagnostics] == [
            "rejection_draws", "clamped_distances", "floor_entries", "foreign_receivers",
            "wrap_near_ties",
        ]
        assert all(int(line.split(" = ")[1]) >= 0 for line in diagnostics)
        with open(out / "sinr_samples.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        cfg = parse_config(cfg_path)
        lay = build_hex_grid(cfg.isd_m, cfg.n_rings, cfg.wraparound)
        assert len(rows) == expected_sinr_sample_count(cfg, lay.n_sectors)
        assert "fraction_above_-6dB" in capsys.readouterr().out

    def test_rerun_is_byte_identical_except_duration(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SMALL_SINR + f"out_dir = {tmp_path}/a\n")
        assert main([cfg_path]) == 0
        first_csv = (tmp_path / "a" / "sinr_samples.csv").read_bytes()
        first_sum = (tmp_path / "a" / "summary.txt").read_bytes()
        first_diag = (tmp_path / "a" / "diagnostics.txt").read_bytes()
        first_man = (tmp_path / "a" / "manifest.txt").read_text().splitlines()
        assert main([cfg_path]) == 0
        assert (tmp_path / "a" / "sinr_samples.csv").read_bytes() == first_csv
        assert (tmp_path / "a" / "summary.txt").read_bytes() == first_sum
        assert (tmp_path / "a" / "diagnostics.txt").read_bytes() == first_diag
        second_man = (tmp_path / "a" / "manifest.txt").read_text().splitlines()
        differing = [
            (x, y) for x, y in zip(first_man, second_man, strict=True) if x != y
        ]
        assert all("duration" in x for x, _ in differing)

    def test_manifest_reproduces_run(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SMALL_SINR + f"out_dir = {tmp_path}/a\n")
        assert main([cfg_path]) == 0
        manifest = str(tmp_path / "a" / "manifest.txt")
        assert main([manifest, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "sinr_samples.csv").read_bytes() == (
            tmp_path / "b" / "sinr_samples.csv"
        ).read_bytes()

    def test_manifest_reproduces_a_run_of_floats_beyond_six_digits(self, tmp_path):
        # 6 significant digits would echo these as 1732.05 and 123.457.
        text = SMALL_SINR.replace("isd_m = 1732", "isd_m = 1732.0508075688772")
        text += f"d2d_range_m = 123.456789\nout_dir = {tmp_path}/a\n"
        assert main([write_cfg(tmp_path, text), "--quiet"]) == 0
        manifest = (tmp_path / "a" / "manifest.txt").read_text()
        assert "isd_m = 1732.0508075688772\n" in manifest
        assert "d2d_range_m = 123.456789\n" in manifest
        assert main([str(tmp_path / "a" / "manifest.txt"), "--out", str(tmp_path / "b"), "--quiet"]) == 0
        for name in ("sinr_samples.csv", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_samples_and_manifest(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SMALL_SINR + f"out_dir = {tmp_path}/a\n")
        assert main([cfg_path]) == 0
        base = (tmp_path / "a" / "sinr_samples.csv").read_bytes()
        assert main([cfg_path, "--seed", "7", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "sinr_samples.csv").read_bytes() != base
        assert "seed = 7" in (tmp_path / "b" / "manifest.txt").read_text()

    def test_throughput_run_and_gain_recomputation(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, SMALL_TPUT + f"out_dir = {tmp_path}/t\n")
        assert main([cfg_path]) == 0
        with open(tmp_path / "t" / "throughput.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        base = [float(r["throughput_bps"]) for r in rows if r["run"] == "baseline"]
        off = [float(r["throughput_bps"]) for r in rows if r["run"] == "offload"]
        assert len(base) == len(off) == 2 * 3 * 5  # drops x sectors x flows
        gain = np.mean(off) / np.mean(base)
        summary = (tmp_path / "t" / "summary.txt").read_text()
        reported = float(
            [l for l in summary.splitlines() if l.startswith("gain_mean")][0].split("=")[1]
        )
        assert reported == pytest.approx(gain, rel=1e-4)  # 6 significant digits
        roles = {r["role"] for r in rows}
        assert roles == {"cellular", "d2d"}

    def test_throughput_diagnostics_count_starved_flows(self, tmp_path, monkeypatch):
        # Two subframes grant at most two of each sector's five flows.
        starved, d2d_grants = [], []

        def recording(sector_flows, *args, **kwargs):
            result = run_pf_uplink(sector_flows, *args, **kwargs)
            grants = result.granted_subframes
            starved.append(sum(g == 0 for g in grants.values()))
            d2d_grants.append(
                sum(grants[f.id] for fl in sector_flows.values() for f in fl if f.role == "d2d")
            )
            return result

        monkeypatch.setattr(engine, "run_pf_uplink", recording)
        text = SMALL_TPUT.replace("n_subframes = 200", "n_subframes = 2")
        cfg_path = write_cfg(tmp_path, text + f"out_dir = {tmp_path}/a\n")
        names = ("throughput.csv", "summary.txt", "diagnostics.txt")
        assert main([cfg_path, "--quiet"]) == 0
        first = {n: (tmp_path / "a" / n).read_bytes() for n in names}
        assert main([cfg_path, "--quiet"]) == 0
        assert {n: (tmp_path / "a" / n).read_bytes() for n in names} == first
        lines = dict(line.split(" = ") for line in first["diagnostics.txt"].decode().splitlines())
        assert list(lines) == [
            "rejection_draws", "clamped_distances", "floor_entries", "foreign_receivers",
            "wrap_near_ties", "baseline_starved_flows", "offload_starved_flows",
            "offload_d2d_grants",
        ]
        # Runs go drop 0 baseline, drop 0 offload, drop 1 baseline, ...
        assert len(starved) == 2 * 4
        assert int(lines["baseline_starved_flows"]) == starved[0] + starved[2] >= 2 * 3 * 3
        assert int(lines["offload_starved_flows"]) == starved[1] + starved[3] >= 2 * 3 * 3
        assert d2d_grants[0] == d2d_grants[2] == 0
        assert int(lines["offload_d2d_grants"]) == d2d_grants[1] + d2d_grants[3] > 0

    @pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
    def test_throughput_offload_preset_bytes_are_pinned(self, tmp_path, preset):
        # Every preset's output files at 2 drops; manifest without # lines.
        expected = PRESET_DIGESTS[preset]
        cfg = replace(parse_config(str(CONFIGS / f"{preset}.cfg")), n_drops=2)
        cli.emit_reports(engine.run_experiment(cfg), cfg, str(tmp_path), 0.0)
        got = {}
        for name in expected:
            lines = (tmp_path / name).read_bytes().splitlines(keepends=True)
            data = b"".join(line for line in lines if not line.startswith(b"#"))
            got[name] = hashlib.sha256(data).hexdigest()
        assert got == expected

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, SMALL_SINR + f"out_dir = {tmp_path}/q\n")
        assert main([cfg_path, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_config_error_exit_code_and_message(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, "bogus = 1\n")
        assert main([cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "line 1" in err

    def test_invalid_utf8_config_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"isd_m = 500\nseed = \xff\n")
        assert main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config line 2:")
        assert captured.err.count("\n") == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.cfg")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        cfg_path = write_cfg(
            tmp_path, SMALL_SINR + f"out_dir = {blocker}/sub\n"
        )
        assert main([cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_invalid_seed_override_exits_1(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, SMALL_SINR + f"out_dir = {tmp_path}/s\n")
        assert main([cfg_path, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "s").exists()

    def test_out_of_memory_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError

        monkeypatch.setattr(cli, "run_experiment", exhausted)
        cfg_path = write_cfg(tmp_path, SMALL_SINR + f"out_dir = {tmp_path}/m\n")
        assert main([cfg_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_throughput_with_the_default_sweep_is_rejected(self, tmp_path, capsys):
        # The default sweep has 13 settings; a throughput run takes exactly
        # one, rather than silently running the first (alpha 0, 0 dB target).
        text = (
            "experiment = throughput\nn_rings = 0\nn_drops = 1\nn_subframes = 50\n"
            f"k_d2d = 2\nd2d_range_m = 50\nout_dir = {tmp_path}/out\n"
        )
        assert main([write_cfg(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "config line 1:" in captured.err
        for key in ("alpha_list", "snr_target_db_list", "no_power_control"):
            assert key in captured.err
        assert not (tmp_path / "out").exists()

    def test_isd_beyond_float_range_is_one_config_error(self, tmp_path, capsys):
        # At 1e308 m the wrap offsets are inf: the run printed numpy overflow
        # warnings, then failed on a NaN sector index. At 1e160 m the run
        # exited 0 with every direct link rounded to 0 m; 1e6 m still runs.
        text = (
            "experiment = sinr\nisd_m = {isd}\nn_d2d_tx_per_sector = 2\nn_drops = 1\n"
            f"out_dir = {tmp_path}/out\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for isd, keys in (("1e308", ["isd_m"]), ("1e160", ["isd_m", "min_d2d_dist_m"])):
                assert main([write_cfg(tmp_path, text.format(isd=isd))]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("error:")
                assert captured.err.count("\n") == 1
                assert all(key in captured.err for key in keys)
                assert not (tmp_path / "out").exists()
            assert main([write_cfg(tmp_path, text.format(isd="1e6")), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("key", ["d2d_range_m", "d2d_offset_db"])
    def test_non_finite_sinr_exits_1_naming_both_keys(self, tmp_path, capsys, key):
        # Both push the direct-link pathloss past float range: the signal is 0
        # and every SINR sample would be -inf.
        text = (
            "experiment = sinr\nn_rings = 1\nn_d2d_tx_per_sector = 2\nn_drops = 1\n"
            f"{key} = 1e308\nout_dir = {tmp_path}/out\n"
        )
        assert main([write_cfg(tmp_path, text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "d2d_range_m" in captured.err and "d2d_offset_db" in captured.err
        assert not (tmp_path / "out" / "summary.txt").exists()

    @pytest.mark.parametrize("out", ["{}/o#1", "{}/o\nx", "{}/o\rx", " {}/o", "{}/o ", "{}/o\t"])
    def test_out_dir_the_manifest_cannot_echo_exits_1(self, tmp_path, capsys, monkeypatch, out):
        # The config syntax cuts a value at "#", ends it at CR or LF and strips
        # its edges, so a manifest echoing this out_dir would name another.
        monkeypatch.chdir(tmp_path)  # where a relative " /..." would land
        out = out.format(tmp_path)
        cfg_path = write_cfg(tmp_path, SMALL_SINR)
        assert main([cfg_path, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "out_dir" in captured.err
        assert captured.err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
        with pytest.raises(ValueError, match="out_dir"):
            ExperimentConfig(out_dir=out)


# Small runs at extreme settings: each ends in an exit code, never a traceback.
_SMALL_RUNS = st.fixed_dictionaries({
    "experiment": st.sampled_from(["sinr", "throughput"]),
    "n_rings": st.integers(0, 1),
    "wraparound": st.booleans(),
    "n_drops": st.integers(1, 2),
    "n_subframes": st.integers(1, 50),
    "n_cellular_per_sector": st.integers(0, 2),
    "n_d2d_tx_per_sector": st.integers(0, 5),
    "k_d2d": st.integers(0, 6),
    "isd_m": st.sampled_from(["-1", "0", "1e-300", "1e-3", "1", "60", "500", "1732", "1e6",
                              "1e160", "1e308"]),
    "d2d_range_m": st.sampled_from(["5", "50", "250", "1e6"]),
    "d2d_offset_db": st.sampled_from(["-1e308", "-300", "-10", "0", "300", "1e308", "nan"]),
    "carrier_ghz": st.sampled_from(["-1", "0", "1e-300", "1e-9", "0.7", "100", "1e300"]),
    "coordination": st.sampled_from(["uncoordinated", "tdm", "reuse:0", "reuse:1", "reuse:2",
                                     "reuse:6"]),
    "alpha_list": st.sampled_from(["", "0", "0.5", "1", "1.5", "0, 1"]),
    "snr_target_db_list": st.sampled_from(["", "-1e308", "-300", "0", "10", "300", "1e308"]),
    "no_power_control": st.booleans(),
})


@settings(max_examples=40)
@given(values=_SMALL_RUNS)
def test_small_runs_end_in_an_exit_code_never_a_traceback(values):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        text = "".join(f"{k} = {v}\n" for k, v in values.items()) + f"out_dir = {out}\n"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([write_cfg(Path(tmp), text)])
        err = stderr.getvalue()
        event(f"exit {code}")
        assert code in (0, 1, 2)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert err == ""
            csv_name = "sinr_samples.csv" if values["experiment"] == "sinr" else "throughput.csv"
            assert sorted(p.name for p in out.iterdir()) == sorted(
                [csv_name, "summary.txt", "diagnostics.txt", "manifest.txt"]
            )


MAX_POWER = PowerControlConfig(0.0, alpha=0.0, enabled=False)  # the sweep's max-power point


# The per-row writers the columnar ones replaced, kept as the byte oracle.


def _write_sinr_csv_oracle(path, report):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("setting_id,alpha,snr_target_db,drop,sector,link,sinr_db\n")
        settings = report.settings
        for row in report.samples:
            s = settings[int(row["setting_id"])]
            alpha = _fmt(s.alpha) if s.enabled else ""
            target = _fmt(s.snr_target_db) if s.enabled else ""
            fh.write(
                f"{int(row['setting_id'])},{alpha},{target},{int(row['drop'])},"
                f"{int(row['sector'])},{int(row['link'])},{_fmt(float(row['sinr_db']))}\n"
            )


def _write_throughput_csv_oracle(path, baseline, offload):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("run,drop,flow,role,throughput_bps\n")
        for report in (baseline, offload):
            for row in report.samples:
                fh.write(
                    f"{report.run_label},{int(row['drop'])},{int(row['flow'])},"
                    f"{row['role']},{_fmt(float(row['throughput_bps']))}\n"
                )


_AWKWARD = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-5, 999999.5, 1e16,
    -12.3456789, 5e-324, 1.7976931348623157e308, 123456.5, 0.1,
]


def _values(n):
    return np.resize(np.array(_AWKWARD), n)


class TestColumnarEmission:
    # More rows than one write chunk, so rows cross a chunk boundary.
    N_ROWS = cli._CHUNK_ROWS + 7

    @pytest.mark.parametrize(
        "n_rows, repeated",
        [(0, False), (1, False), (N_ROWS, False), (N_ROWS, True)],
        ids=["empty", "one_row", "two_chunks", "triples_repeat_across_settings"],
    )
    def test_sinr_csv_bytes_equal_per_row_oracle(self, tmp_path, n_rows, repeated):
        settings = (
            PowerControlConfig(-5.5, alpha=0.8),
            PowerControlConfig(1e-5, alpha=1.0),
            MAX_POWER,
        )
        samples = np.zeros(n_rows, dtype=SINR_SAMPLE_DTYPE)
        row = np.arange(n_rows)
        if repeated:
            # The engine's shape: each setting repeats the (drop, sector,
            # link) triples of its drop, here across a chunk boundary. Link
            # ids come in twos with different sectors, and drops go negative,
            # so a key on fewer columns or on non-negative values fails.
            per_drop = 9000
            entry = row % per_drop
            samples["setting_id"] = row // per_drop % len(settings)
            samples["drop"] = 1 - row // (per_drop * len(settings))
            samples["sector"] = entry % 57
            samples["link"] = 2**31 - 1 - entry // 2
        else:
            samples["setting_id"] = row % len(settings)
            samples["drop"] = row // 1000
            samples["sector"] = row % 57
            samples["link"] = 2**31 - 1 - row
        samples["sinr_db"] = _values(n_rows)
        report = ExperimentReport("sinr", settings, samples)
        _write_sinr_csv_oracle(tmp_path / "old.csv", report)
        assert "".join(cli._sinr_csv(report)).encode() == (tmp_path / "old.csv").read_bytes()

    def test_throughput_csv_bytes_equal_per_row_oracle(self, tmp_path):
        def report(label, n_rows):
            samples = np.zeros(n_rows, dtype=THROUGHPUT_SAMPLE_DTYPE)
            samples["drop"] = np.arange(n_rows) // 30
            samples["flow"] = np.arange(n_rows) % 30
            samples["role"] = np.where(np.arange(n_rows) % 3 == 0, "d2d", "cellular")
            samples["throughput_bps"] = _values(n_rows)[::-1]
            return ExperimentReport(
                "throughput", (MAX_POWER,), samples, run_label=label
            )

        baseline, offload = report("baseline", self.N_ROWS), report("offload", 5)
        _write_throughput_csv_oracle(tmp_path / "old.csv", baseline, offload)
        got = "".join(cli._throughput_csv(baseline, offload)).encode()
        assert got == (tmp_path / "old.csv").read_bytes()
