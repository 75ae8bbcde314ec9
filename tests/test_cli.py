"""CLI subcommands, exit codes, and output determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import agcodes
from agcodes import analysis, cli, dual
from agcodes.alist import read_alist
from agcodes.errors import OrthogonalityViolation, TooLarge


def run_cli(*args, env_extra=None):
    """Run the CLI in a subprocess that imports the package under test."""
    env = dict(os.environ)
    src = str(Path(agcodes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "agcodes.cli", *args],
                          capture_output=True, text=True, env=env)


class TestBuild:
    def test_build_records_params(self):
        res = run_cli("build", "--q", "2", "--l", "2", "--m", "4", "--r", "2")
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert rec["schema"] == 1
        assert (rec["n"], rec["k"], rec["d_theory"]) == (16, 6, 6)
        assert rec["match"] is True

    def test_build_writes_files(self, tmp_path):
        out = str(tmp_path / "gen.txt")
        res = run_cli("build", "--q", "3", "--l", "1", "--m", "2", "--r", "1",
                      "--out", out)
        assert res.returncode == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "3 3 2"
        rec = json.loads(open(out + ".json").read())
        assert rec["match"] is True


class TestDual:
    def test_dual_dimensions(self):
        res = run_cli("dual", "--q", "2", "--l", "2", "--m", "4", "--r", "2")
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert (rec["n"], rec["k"]) == (16, 10)

    def test_dual_writes_plain_and_alist(self, tmp_path):
        out = str(tmp_path / "dual.txt")
        res = run_cli("dual", "--q", "2", "--l", "2", "--m", "4", "--r", "2",
                      "--out", out)
        assert res.returncode == 0
        assert open(out).read().splitlines()[0] == "2 16 10"
        H = read_alist(out + ".alist")
        assert H.shape == (10, 16)

    def test_dual_files_are_pinned(self, tmp_path):
        # sha256 of the three files for AGC(2,4;2)/F4
        pinned = {
            "": "18db2c098b1f4bb2d561df707f89e813bb64080343472be4ddecc39b1ccb596a",
            ".alist": "2632dac879c2c1833903f7b86d8cc73a5edcfa8dbc27a5a98004c34e10ceab8f",
            ".alist.qval": "7b2df175220436f3545417a31ef91cbc60dd3306e9aa912423d00cae5542aa7c",
        }
        out = str(tmp_path / "dual.txt")
        assert cli.main(["dual", "--q", "4", "--l", "2", "--m", "4", "--r", "2",
                         "--out", out]) == 0
        for suffix, digest in pinned.items():
            with open(out + suffix, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, suffix

    @pytest.mark.parametrize("ell,m,r,q,pinned", [
        (3, 6, 3, 2, {
            "": "53118cb80e8ce50df6f508bafd2c167de2eb87fec65b44a42094d0e39ef0e1e2",
            ".alist": "b8950599702c9c42c1700146655b5fcca51623bfae5d502411d9131cb8a73256",
        }),
        (2, 5, 2, 3, {
            "": "8519b6adbe19e8f399442cd60cf5d4514e419f75702795984da3aef142ebd3c1",
            ".alist": "939b2e1312ce0bb2f08f9565dc937e3a223f6e3f29121abdde3168687d280b40",
            ".alist.qval": "757e75697044b756c521ef764610bfcd94558218eb6b2e7201fc253669bebc7e",
        }),
        (3, 7, 2, 2, {
            "": "06464b381b90b3db7b12dfe7a2bd0f7c15732af2a4096b844701a7cf6ba1e343",
            ".alist": "f6698ec7330468fa082df1409aec842180b4a43b916ece785aa2470cb8f85784",
        }),
    ], ids=["agc363-f2", "agc252-f3", "agc372-f2"])
    def test_benchmark_dual_files_are_pinned(self, ell, m, r, q, pinned, tmp_path):
        """The sha256 of every file the benchmark's dual steps write, up to
        n = 4096 and 100 MB of text."""
        out = str(tmp_path / "dual.txt")
        assert cli.main(["dual", "--q", str(q), "--l", str(ell), "--m", str(m),
                         "--r", str(r), "--out", out]) == 0
        for suffix, digest in pinned.items():
            with open(out + suffix, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, suffix
        assert os.path.exists(out + ".alist.qval") == (q > 2)

    @pytest.mark.parametrize("ell,m,r,q,pinned", [
        (1, 3, 1, 16, {
            "": "175f8113f5bf17d376325dc4d20186bc300082e63c0ebedf6f78bf7c456e121a",
            ".alist": "2d9d1900f8f578004959462ac62a4a952e458edbb5bff688b360346ca7f00971",
            ".alist.qval": "4a311e37f7ebf36d7c74a7c3bcafa7f41a930b692b2214b2feca4edf1b11ce3d",
        }),
        (2, 4, 1, 5, {
            "": "5b0834e5ea66b427500baaee45b4a848fadcdae0adde49600c4456e435005b51",
            ".alist": "f0e236e85362d022ca27a5d8be7f76c8f947595a40a16ba84b48cf3961d0c405",
            ".alist.qval": "e7f0111ce8e2a30e9605f7160cfd5f151b30dfc2709b070ea88af87b73d7bab8",
        }),
    ], ids=["agc131-f16", "agc241-f5"])
    def test_export_files_are_pinned(self, ell, m, r, q, pinned, tmp_path):
        """The sha256 of the files of two duals no benchmark step writes:
        over F_16, whose .qval and generator values have two digits, and
        over F_5."""
        out = str(tmp_path / "dual.txt")
        assert cli.main(["dual", "--q", str(q), "--l", str(ell), "--m", str(m),
                         "--r", str(r), "--out", out]) == 0
        for suffix, digest in pinned.items():
            with open(out + suffix, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, suffix

    @pytest.mark.parametrize("ell,m,r,q,text,record", [
        (3, 6, 2, 2, "523c52b6c05e2f99399174b642c8d06b5d6065d4ab4b50b0de2f2de441d53ea5",
         "ed59c01429f3adb6e1f3891eb0b1d6bef261a17d80f0cc75c5adc9b60ebba4d4"),
        (2, 5, 2, 3, "b83a4ae1f3a8272eb086791cb6c8399e3d18c93242cc1290771cd580192d0a55",
         "b6bbe72e88f5948f4e0ba90553e9ded2ebb042f5a0109b755dc903ea765c7d17"),
        (2, 4, 2, 4, "602ab3bff5ba52b93a290ad656f757e90c076ec8c7b1f3de52dfcf54577a7377",
         "41d11a109adbb32f3a038607426c112e7599ae08639c83f22acdd7a385213b9e"),
        (1, 2, 1, 16, "5092c3d60381f3baf033323c89be78b664bc761b4dd68143e9e63f7a58be3aa2",
         "a4e4cdde678c43a4a48ed2b944e7f061f0925beb418d7aafbb5ba7d70cf23af9"),
        (3, 7, 2, 2, "9fdc3810c85b1b7c478ce8ea35e8c3999f9c8c9f8beb36def73301bee032250d",
         "11d61f53747e6bdb8dc46a3514e2bcf32e16ba6188bdf4220c75f6c5a2bef5c4"),
    ], ids=["agc362-f2", "agc252-f3", "agc242-f4", "agc121-f16", "agc372-f2"])
    def test_generator_files_are_pinned(self, ell, m, r, q, text, record, tmp_path):
        """The sha256 of the generator text and its .json record that
        ``build --out`` writes."""
        out = str(tmp_path / "gen.txt")
        assert cli.main(["build", "--q", str(q), "--l", str(ell), "--m", str(m),
                         "--r", str(r), "--out", out]) == 0
        for suffix, digest in [("", text), (".json", record)]:
            with open(out + suffix, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, suffix

    # the sha256 of the files of AGC(2,4;2)/F4, as test_dual_files_are_pinned pins them
    F4_ARGS = ["--q", "4", "--l", "2", "--m", "4", "--r", "2"]
    F4_TEXT = "18db2c098b1f4bb2d561df707f89e813bb64080343472be4ddecc39b1ccb596a"
    F4_ALIST = "2632dac879c2c1833903f7b86d8cc73a5edcfa8dbc27a5a98004c34e10ceab8f"
    F4_QVAL = "7b2df175220436f3545417a31ef91cbc60dd3306e9aa912423d00cae5542aa7c"

    def test_commands_build_no_dual_code(self, monkeypatch, tmp_path, capsys):
        """dual, dual --out and export-alist read the proved basis by row
        blocks and never call build_dual_code: with it patched to raise,
        they exit 0 with the same records and bytes."""
        def no_h(C):
            raise AssertionError("H was built")

        monkeypatch.setattr(dual, "build_dual_code", no_h)
        out, alist_out = str(tmp_path / "dual.txt"), str(tmp_path / "h.alist")
        record = {"schema": 1, "q": 4, "l": 2, "m": 4, "r": 2, "n": 256, "k": 250}
        for argv, want in [(["dual", *self.F4_ARGS], record),
                           (["dual", *self.F4_ARGS, "--out", out], record),
                           (["export-alist", *self.F4_ARGS, "--out", alist_out],
                            {"schema": 1, "written": alist_out, "n": 256, "rows": 250})]:
            assert cli.main(argv) == 0, argv
            assert json.loads(capsys.readouterr().out) == want
        for path, digest in [(out, self.F4_TEXT), (out + ".alist", self.F4_ALIST),
                             (out + ".alist.qval", self.F4_QVAL),
                             (alist_out, self.F4_ALIST), (alist_out + ".qval", self.F4_QVAL)]:
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, path

    @pytest.mark.parametrize("command", ["dual", "dual-out", "export-alist"])
    def test_refuted_proof_leaves_no_file(self, command, monkeypatch, tmp_path, capsys):
        """The basis is proved before any file is opened: a refuted proof
        exits 2 with its error record and writes nothing."""
        def refuted(*args):
            raise OrthogonalityViolation("refuted")

        monkeypatch.setattr(dual, "check_dual_basis", refuted)
        out = str(tmp_path / "h.out")
        argv = [command.split("-out")[0], *self.F4_ARGS]
        argv += [] if command == "dual" else ["--out", out]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"schema": 1, "error": "OrthogonalityViolation",
                                            "message": "refuted"}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["dual", "export-alist"])
    def test_export_memory_holds_no_dual_matrix(self, command, tmp_path, capsys):
        """AGC(3,7;2)/F2: H would be 4065 x 4096, 15.9 MiB, and the whole
        command, the proof and every file written, stays below 6 MiB of
        traced allocations."""
        argv = [command, "--q", "2", "--l", "3", "--m", "7", "--r", "2",
                "--out", str(tmp_path / "dual.txt")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 6 * 2 ** 20, peak


class TestExportAlist:
    def test_export(self, tmp_path):
        out = str(tmp_path / "h.alist")
        res = run_cli("export-alist", "--q", "2", "--l", "2", "--m", "4",
                      "--r", "2", "--out", out)
        assert res.returncode == 0
        assert read_alist(out).shape == (10, 16)

    def test_qval_for_q3(self, tmp_path):
        out = str(tmp_path / "h3.alist")
        res = run_cli("export-alist", "--q", "3", "--l", "1", "--m", "2",
                      "--r", "1", "--out", out)
        assert res.returncode == 0
        assert os.path.exists(out + ".qval")


class TestVerify:
    def test_small_battery_passes(self):
        res = run_cli("verify", "--q", "2", "--l", "2", "--m", "4")
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        assert rec["ok"] is True
        assert all(c["pass"] for c in rec["checks"])

    def test_check_that_cannot_run_fails_alone(self, monkeypatch, capsys):
        """A support search over the pair cap fails its dual-min-weight
        check with the error; every other check still runs and reports.
        The codes are sent to the pair kernel, as the orbit route has no
        cap to pass."""
        argv = ["verify", "--deep", "--q", "2", "--l", "2", "--m", "4"]
        assert cli.main(argv) == 0
        passing = json.loads(capsys.readouterr().out)
        monkeypatch.setattr(analysis, "_orbit_classes", lambda C: None)
        monkeypatch.setattr(analysis, "MAX_PAIR_COMBINATIONS", 16)
        assert cli.main(argv) == 1
        rec = json.loads(capsys.readouterr().out)
        assert rec["ok"] is False
        assert [c["name"] for c in rec["checks"]] == [c["name"] for c in passing["checks"]]
        for c in rec["checks"]:
            failed = c["name"].startswith("dual-min-weight-r")
            assert c["pass"] is not failed
            assert c.get("error", "").startswith("TooLarge: ") is failed

    @pytest.mark.parametrize("q,d", [(3, 3), (2, 4)])
    def test_dual_search_stops_at_the_expected_distance(self, q, d, monkeypatch, capsys):
        """dual-min-weight-r* searches up to the expected dual distance and
        no further: w_max 3 over F_3, 4 over F_2."""
        real = analysis.low_weight_dual_search
        seen = []
        monkeypatch.setattr(analysis, "low_weight_dual_search",
                            lambda C, w_max=4: seen.append(w_max) or real(C, w_max))
        assert cli.main(["verify", "--deep", "--q", str(q), "--l", "2", "--m", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert seen == [d, d]  # r = 1, 2

    def test_dual_dim_is_the_proof_alone(self, monkeypatch, capsys):
        """dual-dim-r* runs check_dual_basis on dual_basis and evaluates no
        H; it fails when the proof does, and only it fails."""
        def no_h(C):
            raise AssertionError("H was evaluated")

        def refuted(*args):
            raise OrthogonalityViolation("refuted")

        monkeypatch.setattr(dual, "build_dual_code", no_h)
        argv = ["verify", "--q", "3", "--l", "2", "--m", "4"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(dual, "check_dual_basis", refuted)
        assert cli.main(argv) == 1
        rec = json.loads(capsys.readouterr().out)
        for c in rec["checks"]:
            failed = c["name"].startswith("dual-dim-r")
            assert c["pass"] is not failed
            assert c.get("error", "").startswith("OrthogonalityViolation: ") is failed

    def test_build_that_cannot_run_fails_its_checks_alone(self, monkeypatch, capsys):
        """Each level's code is built inside the first check that needs
        it: a build that raises at r = 2 fails params-r2, self-orth-r2,
        dual-min-weight-r2 and the automorphism sample (of the r = l
        code) with its error, and every other check, dual-dim-r2
        included, still runs and passes."""
        argv = ["verify", "--deep", "--q", "2", "--l", "2", "--m", "4"]
        assert cli.main(argv) == 0
        names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
        real = cli.build_affine_grassmann

        def build(ell, m, r, q):
            if r == 2:
                raise TooLarge("no level-2 code")
            return real(ell, m, r, q)

        monkeypatch.setattr(cli, "build_affine_grassmann", build)
        assert cli.main(argv) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["name"] for c in checks] == names
        failing = {"params-r2", "self-orth-r2", "dual-min-weight-r2", "automorphism-sample"}
        for c in checks:
            assert c["pass"] is (c["name"] not in failing), c
            assert (c.get("error") == "TooLarge: no level-2 code") is (c["name"] in failing)

    def test_self_orthogonality_is_timed_in_its_check(self, monkeypatch, capsys):
        """G G^T is taken inside self-orth-r*'s clock: with 50 ms added to
        each product, every self-orth-r* reports at least 0.05 s."""
        real = dual.self_orthogonality_check

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(dual, "self_orthogonality_check", slow)
        assert cli.main(["verify", "--q", "2", "--l", "2", "--m", "4"]) == 0
        rec = json.loads(capsys.readouterr().out)
        timed = [c for c in rec["checks"] if c["name"].startswith("self-orth-r")]
        assert [c["name"] for c in timed] == ["self-orth-r0", "self-orth-r1", "self-orth-r2"]
        assert all(c["seconds"] >= 0.05 for c in timed), timed

    def test_exception_case_flagged_and_passes(self):
        res = run_cli("verify", "--q", "2", "--l", "1", "--m", "2")
        assert res.returncode == 0
        rec = json.loads(res.stdout)
        names = {c["name"] for c in rec["checks"]}
        assert "self-orth-r1" in names
        assert rec["ok"] is True


class TestReport:
    def test_report_contents(self):
        res = run_cli("report", "--q", "2", "--l", "2", "--m", "4", "--r", "2")
        rec = json.loads(res.stdout)
        assert (rec["n"], rec["k"], rec["d"]) == (16, 6, 6)
        assert rec["min_weight_count"] == 16
        assert rec["automorphism_subgroup_order"] == 576
        assert rec["binomials"] == 1

    def test_deep_adds_weight_report(self):
        res = run_cli("report", "--q", "2", "--l", "2", "--m", "4", "--r", "2",
                      "--deep")
        rec = json.loads(res.stdout)
        assert rec["dual_weight_report"]["d"] == 4


class TestTopRung:
    """The n = 65536 rung, AGC(4,8;r)/F2, run in process.  Its keys pass
    63 bits at r = 3 and 4, and its pair combinations the kernel's cap at
    every level; the orbit route counts them all, in at most about 0.3 s a
    level on a 2-core machine.  Each level's dual-dim proof, on the key
    arrays of 65k basis rows, takes at most 0.15 s."""

    ARGS = ["--q", "2", "--l", "4", "--m", "8"]

    def test_report_deep_at_every_level(self, capsys):
        t0 = time.perf_counter()
        for r in range(1, 5):
            assert cli.main(["report", "--deep", *self.ARGS, "--r", str(r)]) == 0
            rec = json.loads(capsys.readouterr().out)
            count = 11727587164160 if r == 1 else 197836800
            assert rec["dual_weight_counts"] == {"1": 0, "2": 0, "3": 0, "4": count}
            assert rec["dual_weight_report"] == {"d": 4, "count": count, "method": "orbit",
                                                 "enumerated": 4 * 65535}
        assert time.perf_counter() - t0 < 8.0

    def test_verify_deep_passes(self, capsys):
        t0 = time.perf_counter()
        assert cli.main(["verify", "--deep", *self.ARGS]) == 0
        assert time.perf_counter() - t0 < 15.0
        rec = json.loads(capsys.readouterr().out)
        assert rec["ok"] is True
        weights = [c for c in rec["checks"] if c["name"].startswith("dual-min-weight-r")]
        assert [c["name"] for c in weights] == [f"dual-min-weight-r{r}" for r in range(1, 5)]
        assert all(c["pass"] for c in rec["checks"])
        proofs = [c for c in rec["checks"] if c["name"].startswith("dual-dim-r")]
        assert [c["name"] for c in proofs] == [f"dual-dim-r{r}" for r in range(1, 5)]
        assert all(c["seconds"] <= 0.15 for c in proofs), proofs


class TestFailurePaths:
    def test_bad_field_exits_nonzero(self):
        res = run_cli("build", "--q", "6", "--l", "1", "--m", "2", "--r", "1")
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["error"] == "NotPrimePower"

    def test_bad_level_exits_nonzero(self):
        res = run_cli("build", "--q", "2", "--l", "2", "--m", "4", "--r", "3")
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "SizeOutOfRange"

    def test_coordinate_cap_env(self):
        res = run_cli("build", "--q", "2", "--l", "2", "--m", "4", "--r", "2",
                      env_extra={"AGC_MAX_COORDS": "10"})
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "TooLarge"

    def test_non_integer_coordinate_cap_env(self):
        res = run_cli("build", "--q", "2", "--l", "2", "--m", "4", "--r", "2",
                      env_extra={"AGC_MAX_COORDS": "abc"})
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "SizeOutOfRange"

    def test_zero_ell_exits_with_record(self):
        res = run_cli("build", "--q", "2", "--l", "0", "--m", "4", "--r", "0")
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "SizeOutOfRange"

    def test_out_into_missing_directory(self, tmp_path):
        out = str(tmp_path / "missing" / "gen.txt")
        res = run_cli("build", "--q", "2", "--l", "2", "--m", "4", "--r", "2",
                      "--out", out)
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("command", ["build", "dual", "export-alist"])
    def test_empty_out_path_exits_with_record(self, command, capsys):
        """--out '' names no file: every writing command fails alike."""
        assert cli.main([command, "--q", "2", "--l", "1", "--m", "2", "--r", "1",
                         "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "FileNotFoundError"

    def test_huge_grid_rejected_without_computing_n(self):
        res = run_cli("report", "--q", "3", "--l", "2000000", "--m", "4000000",
                      "--r", "1")
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "TooLarge"
        t0 = time.perf_counter()
        assert cli.main(["report", "--q", "3", "--l", "2000000", "--m", "4000000",
                         "--r", "1"]) == 2
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("command", ["dual", "export-alist"])
    def test_dual_over_size_cap_exits_with_record(self, command, tmp_path, capsys):
        # n = 65536: H would be 65483 x 65536 (4 GiB); no row of it is made
        out = str(tmp_path / "h.alist")
        t0 = time.perf_counter()
        rc = cli.main([command, "--q", "2", "--l", "4", "--m", "8", "--r", "2",
                       "--out", out])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"] == "TooLarge"
        assert captured.out == ""
        assert not os.path.exists(out)

    def test_huge_q_rejected_before_factoring(self):
        res = run_cli("build", "--q", str(10 ** 20 + 39), "--l", "1", "--m", "2",
                      "--r", "1")
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "Unsupported"

    def test_negative_seed_exits_with_record(self):
        res = run_cli("verify", "--q", "2", "--l", "1", "--m", "2", "--seed", "-1")
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "SizeOutOfRange"
        assert "Traceback" not in res.stderr

    def test_missing_subcommand(self):
        res = run_cli()
        assert res.returncode != 0

    @pytest.mark.parametrize("argv", [
        ["build", "--q", "x", "--l", "1", "--m", "2", "--r", "1"],
        ["build", "--q", "2", "--l", "1", "--r", "1"],
        ["report", "--q", "2", "--l", "2", "--m", "4", "--r", "2", "--out", "OUT"],
        ["build", "--q", "2", "--l", "1", "--m", "2", "--r", "1", "--seed", "1"],
        ["dual", "--q", "2", "--l", "1", "--m", "2", "--r", "1", "--deep"],
        ["verify", "--q", "2", "--l", "1", "--m", "2", "--out", "OUT"],
        ["build", "--q", "2", "--l", "1", "--m", "2", "--r", "1", "--bogus"],
        ["build", "--q", "2", "--l", "2", "--lp", "2", "--r", "1"],
    ], ids=["non-integer-q", "missing-m-and-lp", "report-out", "build-seed",
            "dual-deep", "verify-out", "unknown-flag", "no-lp-alias"])
    def test_usage_error_exits_with_record(self, argv, tmp_path, capsys):
        """A flag the subcommand does not read is rejected, and every usage
        error leaves as one error record with exit code 2."""
        out = str(tmp_path / "f")
        assert cli.main([out if a == "OUT" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "UsageError"
        assert not os.path.exists(out)


def test_one_parser_serves_every_call(tmp_path, capsys):
    """The parser is built once per process.  report, dual --out, a usage
    error and report again each give the record and exit code of a fresh
    process, and the --out of one call does not carry over to the next."""
    out = str(tmp_path / "d.txt")
    calls = [["report", "--q", "2", "--l", "2", "--m", "4", "--r", "2"],
             ["dual", "--q", "3", "--l", "1", "--m", "2", "--r", "1", "--out", out],
             ["report", "--q", "2", "--l", "2", "--m", "4", "--r", "2", "--out", out],
             ["report", "--q", "2", "--l", "2", "--m", "4", "--r", "2"],
             ["dual", "--q", "3", "--l", "1", "--m", "2", "--r", "1"]]
    for argv in calls:
        fresh = run_cli(*argv)
        for path in (out, out + ".alist", out + ".alist.qval"):
            if os.path.exists(path):
                os.remove(path)
        assert cli.main(argv) == fresh.returncode, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr), argv
        assert os.path.exists(out) == ("--out" in argv and fresh.returncode == 0), argv
    assert fresh.returncode == 0 and cli._parser.cache_info().currsize == 1


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / f"{name}.txt")
            res = run_cli("dual", "--q", "3", "--l", "2", "--m", "4",
                          "--r", "2", "--out", out)
            assert res.returncode == 0
            outs.append((open(out, "rb").read(),
                         open(out + ".alist", "rb").read(),
                         open(out + ".alist.qval", "rb").read(),
                         res.stdout))
        assert outs[0] == outs[1]
