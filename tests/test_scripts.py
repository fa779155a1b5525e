"""Smoke tests for the example scripts under ``scripts/``."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_network_experiment.py", ["--publishes", "30", "--max-failures", "1"]),
        ("corpus_report_demo.py", ["--count", "20"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert any(out.iterdir())


def test_memory_per_nanopub_prints_three_figures():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "memory_per_nanopub.py"), "--count", "20"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "nanopubs: 20"
    generated, stored, indexed = (int(line.split()[1]) for line in lines[1:])
    assert 0 < generated <= stored <= indexed


def test_verify_rate_prints_microseconds_per_nanopub():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "verify_rate.py"), "--count", "20"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "nanopubs: 20"
    assert lines[1].startswith("verify: ") and lines[1].split()[2:4] == ["us", "per"]
    assert float(lines[1].split()[1]) > 0


def test_parse_rate_prints_microseconds_and_megabytes_per_second():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "parse_rate.py"), "--count", "20"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("nanopubs: 20 (")
    assert [line.split(":")[0] for line in lines[1:]] == ["parse_trig", "read_corpus"]
    for line in lines[1:]:
        words = line.split()
        assert words[2:5] == ["us", "per", "nanopub,"] and words[6] == "MB/s"
        assert float(words[1]) > 0 and float(words[5]) > 0
