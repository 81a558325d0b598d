"""Pinned digests of the CLI reports on the first benchmark problems.

The first problems of the ``classify``, ``inclusion`` and ``analysis``
workloads of ``bench/workloads.py`` (seed 1) run in-process through
``cli.run``.  Each problem's sha256 over (index, exit code or the text of
an escaped exception, stdout, stderr) must equal its pinned digest, so a
change to any of these reports shows here.  ``classify`` runs through
problem 13, its first universally robust instance; ``inclusion`` covers two
rotations of its cost classes, and ``analysis`` one.

A change that alters reports on purpose re-pins the digests, which
``PYTHONPATH=src python tests/test_report_digests.py`` prints, and says so
in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

from maxcirc import cli  # noqa: E402

SEED = 1
COUNTS = {"classify": 14, "inclusion": 16, "analysis": 5}

PINNED = {
    "classify": (
        "fbf934553e5eee12184b58ea184036d9dac19ca89c1b3c3969123e3e3625bde0",
        "326b50331279c057af1b70470f525bde4b9ad6ab483adf38beeb19253bf448f9",
        "9fde7910df1487aafd8c2bc36e5b93a1209566df7ce49a4b85ed2dde0ecf1d31",
        "73b60cedc7433d505acb5865013b702b14e656c7f92079797ae38c7f331d9e1a",
        "97c6323532dcbafd6c8b9fad0dd0f8a352141db5530b9d88b8915aa71cb134af",
        "593ffb9ed24ebfbb84f94a6c1bf37b5b348efe22bf13401dd0c0b1584f9233af",
        "3e72d529a7217eb752b549e05dbb16621657332867505027d9e28962ef7b20d0",
        "c69b71b0b60ca136f574962047c66fcb166ec6e076fc0ada58864e73a8523082",
        "a80e826c99773226c401f00bb1c3dcc252474c343c9b98f8749cf6d8e3c5348f",
        "a0f89a872d8326b20e4a412efd479e9b2ca186cbb16a01455fab22e591a245af",
        "6c5204007ffe55861e66155f700782a77a9e6749201ce9fdae01d96fbad71495",
        "532d119c231e923fa382dd4f61952c7b410e12551882bf87ee91dfdd3eb1bd52",
        "472fc3c71b0ad5db2338392e206faaeb56a9dbf7d3630a4172e558972d633f48",
        "a1eb3952982eeb70037100e2fef510a514b67a0455934a3421deb9147c95edff",
    ),
    "inclusion": (
        "feec1b74562a3c8885761a0e15861acf376240a153118bae6d443599d8a6d2f7",
        "df1615337549f74e23ed64f5a8fd1ce9e3ea5e858f548a68335e49a0caf86d21",
        "c7ae34dbfa32de1c1fcb82bb8cb0d2d0b5fa2739d0ce55fee34d9ee57c08089b",
        "b54b57ee99737ac2865fe663cdf5fab0fef0b34978d2278b07dec42c0e6963ae",
        "9c05efbd23fec57b78dad1792ac0aee25ddce76fbb66ad7050bb6635cb7a791c",
        "d2e5b74cc5d42efb992265ef101f0cd8bbca5415fe3e26cc21cdd63208562cfe",
        "7ea152d3e2414445715221cf9d1800fad272bb9ee4982b50c024d0e284473d37",
        "9a6f1296a12d4c47a1ce35dd74222e0a68a104af687e3e428bf22d2bfe32b017",
        "e0aca2ce1a8958ff76f4735645fc1124288306e93f3fd33dd6c21cbceb5b6112",
        "c2fe26f6133adce27bc5af28c489c5a56fdf4a67fb8900ab662ca51e5a5ac4d8",
        "b21d4b8e9b791bc2ce92fd7dfaa4121d72428df62972ad16c35f6884547c8747",
        "ab411e4df9cf00f0bcd904ee79364faab9404db6e7c31b49a46c3c5b08989e8e",
        "dbc9fc4884e0de7bb41c0e5a0f4013e6a5614be992a7e4db2bfec4a648429d89",
        "f2c0c2589bef7e627d6c1054663789583b884eb0551392263f989d371428cb35",
        "c3018ae800c945fd7987804a2642ac5416e7dccf39abc1f388520c1620d00ed9",
        "6574cfede188bf4348e6f13b8394d30b572dcdaae9c763c8ad301402ea4ecdc7",
    ),
    "analysis": (
        "8e2dee822684e760c110408a5b72bee5f2b45f47065115becf2805bd04a086e1",
        "fbe772847fa432e605d64ccb9382093758eb6f664f04e9063012ac3b915419b2",
        "7ea78b7d39fd6287c575e8356c8ea793170c6d85cfdf04e085b64c663d0defad",
        "5126ddc2a5799bfd1b10bdb9149695d71a6c1c5162f971318b42a51e859c7470",
        "9044e1dd08c5ca21e9c68e1ec33dd5ee37b1b8a9a645782f5937ce18583f5630",
    ),
}


def report_digests(workload: str, count: int, workdir: Path) -> list[str]:
    path = workdir / "problem.json"
    digests = []
    for i in range(count):
        problem, flags = workloads.make_problem(workload, SEED, i)
        path.write_text(json.dumps(problem))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.run(str(path), **flags)
            except Exception as exc:
                code = f"{type(exc).__name__}: {exc}"
        record = repr((i, code, stdout.getvalue(), stderr.getvalue()))
        digests.append(hashlib.sha256(record.encode()).hexdigest())
    return digests


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_reports_match_the_pinned_digests(workload, tmp_path):
    assert report_digests(workload, COUNTS[workload], tmp_path) == list(PINNED[workload])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("PINNED = {")
        for workload, count in COUNTS.items():
            print(f'    "{workload}": (')
            for digest in report_digests(workload, count, Path(tmp)):
                print(f'        "{digest}",')
            print("    ),")
        print("}")
