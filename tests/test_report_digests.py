"""Pinned digests of the CLI reports on the first benchmark problems.

The first problems of the ``classify``, ``inclusion`` and ``analysis``
workloads of ``bench/workloads.py`` (seed 1) run in-process through
``cli.run``.  Each problem's sha256 over (index, exit code or the text of
an escaped exception, stdout, stderr) must equal its pinned digest, so a
change to any of these reports shows here.  ``classify`` runs through
problem 13, its first universally robust instance; ``inclusion`` covers two
rotations of its cost classes, and ``analysis`` one.

Fourteen inline ``inclusion_check`` problems at n = 7 and 8 are pinned the
same way.  The benchmark's n = 5 never reaches the generator limit of the
attraction systems, and eight of these do.  Of the first 60 pairs that
``workloads.dominated_pair`` draws from ``random.Random(11)`` (n alternating
7 and 8, every fourth pair swapped), the first twelve are the eight whose
first cone has no generating set within the limit for its reduced system,
its full system or both, the two other counterexamples, and the first two
remaining pairs.  The thirteenth puts a first cone that is the constant ray
alone (one maximal entry, at an offset coprime to n) and lies past the
limit of its row pairs against the b of ``WIDE_PAIRS[7]``: decided by the
closed form, its report is the one that sampling gave, consistent after 200
trials with 408 members tested.  The fourteenth puts two cones of period 1
(each row's diagonal is maximal), so each is the whole space, against each
other: consistent after 200 trials with 408 members tested, which the
inclusion check answers from the two spectral passes alone.  The tenth,
``WIDE_PAIRS[9]``, has a <= b entrywise with equal largest entries and a
first cone past the generator limit: it is now decided by domination, one
comparison of the rows, and its report is the one that sampling gave,
consistent after 200 trials with 408 members tested.

Fourteen inline ``circulant_analysis`` problems are pinned too: n = 1, the
zero row, a maximal diagonal with and without maximal offsets, an all-equal
row, several components with period above 1, and three n = 20 workload rows
(``analysis`` problems 0 and 2 at seed 2 and problem 5 at seed 3).

Four inline general-matrix ``attraction_check`` problems guard the
general-matrix orbit and system paths: [[0,1],[4,0]] (cycle-mean class
(4, 2)) with a member of period 1 and a vector of period 2, two components
of equal mean plus an acyclic node (period 2, one equation), and
[[0,1],[2,0]], whose irrational eigenvalue escapes as a ``ValueError``.

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
        "cde246ec1a75188de87f2c938d0d2d370fce2f2077ec5a168cff4514bb77e14a",
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


# (a, b) defining rows of the inline n = 7 and 8 inclusion problems.
WIDE_PAIRS = (
    (["1/2", 1, "2/3", 1, 1, "1/4", 0], ["1/2", 1, "2/3", 1, 1, "1/2", "1/2"]),
    (["1/2", "1/3", 0, 0, "2/3", 1, 0, 0], ["1/2", "1/3", "1/4", 0, "2/3", 1, "3/4", "3/4"]),
    ([0, 0, "1/4", "1/2", 0, 1, 0], [0, "1/4", "1/4", "2/3", 0, 1, "1/2"]),
    (["1/2", "3/4", "1/3", "1/2", "2/3", 1, 0, "3/4"], ["1/4", "2/3", "1/4", 0, 0, 1, 0, "1/2"]),
    (["1/2", "1/4", 0, "1/3", 1, 1, "2/3", "1/3"], ["1/4", "1/4", 0, 0, 1, "1/4", "1/4", "1/4"]),
    (["1/3", 0, 0, 0, 0, "3/4", 0, "1/2"], ["1/2", "1/4", "1/2", "1/2", "1/4", "3/4", 0, "1/2"]),
    (["1/2", "1/2", "1/4", "1/3", "1/2", 1, "1/2", "2/3"], ["1/4", "1/2", 0, "1/4", "1/4", 1, 0, 0]),
    (["3/4", 0, "1/3", "1/2", 0, "1/2", 1, "1/2"], ["1/2", 0, 0, "1/4", 0, "1/3", 1, 0]),
    ([0, 0, "2/3", 0, "3/4", "1/4", "1/3", "1/2"], [0, 0, 0, 0, "3/4", "1/4", "1/4", "1/3"]),
    (["1/4", "1/2", "1/3", "1/4", 1, "1/3", "1/3", "2/3"], ["1/4", "1/2", "1/2", "1/4", 1, "1/2", "2/3", "2/3"]),
    (["1/3", "1/3", "1/4", 0, "1/3", "1/4", "1/4", "3/4"], ["1/3", "2/3", "1/4", 0, "1/3", "1/2", "1/4", "3/4"]),
    (["2/3", 0, "1/2", "2/3", "2/3", "1/2", 1, "3/4"], [0, 0, "1/3", "1/4", "2/3", 0, 1, "3/4"]),
    ([0, "1/4", "1/4", "1/4", 0, 0, 0, 1], ["1/2", 0, 0, "1/4", 0, "1/3", 1, 0]),
    ([1, "1/2", 0, "1/4", 0, "1/3", 0, 0], [1, 0, "1/2", 0, 1, 0, 0, "1/4"]),
)

PINNED_WIDE = (
    "2e93718f863e59ce38133aa82920752c9e2c8b6d62e5e5b5786a604e8ee0020c",
    "a18539d638955c573dac05e705bda1eefac19e498e6cf42c8c273fca941d95bb",
    "f84c5e75d2019d41a5517bd221237d847227bd9936a63fbbae9c96cbcadaab2d",
    "da8108c66725785fcc8050660196a56fc0c7e6d435d1f4bcf736fc1f935d963b",
    "933e38c7ce330131b463d080a82bf1883e1638ee9b79a2134b933df863c1184d",
    "e50081ee1454d8d2cd8e9917a7779968411a497283264a41e44d88b9407dc315",
    "28c5a567f386cf5065bafa253574f7655d1c039c7e05321edff23d057c7dc636",
    "c68232709d768a55359c257fec01c57bfe33f09c186543b1b9b41cc91f233aa9",
    "3226d8d1915b740a3583ec46403c54b110d3a4ad9a4c15920b2b0bd8e724d162",
    "3552c01dea79892ed94cbb58298270ca9b0e5f81b326d0fcee0aaa1a6f1c824a",
    "aecf7715dd1561501043b48aca92cc8937f6deacd45ba170d3adc5950f65969f",
    "672da99036276d7d76e8c6f79963e8ae336ce0f086bb8cb4c4170c442832e138",
    "b6f653b44adca927829222954b58ba3955a250b5aebb4ce87f93c6f09ef00a83",
    "aa7113299247c43671202531fb058c743d7fe727b7897e7e94fdeabbd96b8720",
)


# Defining rows of the inline circulant analyses.
ANALYSIS_ROWS = (
    [1],
    ["3/4"],
    [0, 0, 0],
    [1, "1/2", "1/2"],
    [1, 0, 1, "1/4", 0, 1],
    ["1/2", "1/2", "1/2", "1/2", "1/2"],
    [0, 0, 1, "1/2"],
    [0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ["1/4", 0, 1, 0, 0, 0, "1/2", 0, 0, 0, 1, 0, 0, 0],
    ["1/3", "3/4", 0, "2/3", 0, 0, 0, 1, 1, 1, "1/2", "1/2", "3/4", "1/2", 0, 0, "3/4", "1/3", "3/4", "2/3"],
    ["1/4", "1/3", 0, "1/4", "1/4", 0, "2/3", "1/4", "3/4", "2/3", 0, "1/3", "1/3", 0, "1/2", 0, "2/3", "1/2", 0, "1/4"],
    [1, "3/4", 1, 0, 1, 1, 0, "1/4", "1/3", "1/2", "1/3", "1/4", "1/2", "1/4", 0, "2/3", "1/2", "3/4", 0, "1/2"],
)

PINNED_ANALYSIS = (
    "09c1bfe27776030bc03e096cbdcbefec84910216c0e65656eccb2b8654ab50b7",
    "34bfa231b4483890f9d9561ecba089f3c7e3f8664cba8cb52500842fa0410b08",
    "3c04a1be23810dc23cbd94edf3e417ccbd3f3728b331f61c271e4d9c29479530",
    "3a4a7e516e5cdb0b8b20d2f4f765356a9e3f0bc03bcc04baced024c2e4a23c94",
    "5ff0a55fba2926945b13780c29f2806f040ead80b637776835be261f5bbe8b2b",
    "eaa87041f7e2b13535e312af51ca3da29e9a653d80ebc00d387533d674fe4d77",
    "cd74e8e04330c9195e162d960c220134907cca9a96762f082d36550b42372aae",
    "d1695b5e300213d83b3d6c00494f57269dc19cc270a4e78d343c8055902551c5",
    "e836b34c40c1c7a8e0bee64e44b2c8c458c8897116b64957d280008f99dd26ea",
    "7d77aa132b6772a443f45f314ed0b5a3ea124f40d99e9ed327cdb4a13ee4482a",
    "6f066e8c9eb480f8ce8367e8ebc10ac8bc915d8436452779f95ac0d802e45634",
    "b649b9808464ac62a4a11881dc3abccd2b39fc3cb6b3045c3def231891734459",
    "1ef3926636e5bcd92511902e36297e369f0db7302a2e0853e04158e6495647f3",
    "e15371581bf70f2153b2969800949861264519699a759902220018e748e953bb",
)


# (matrix, vector) of the inline general-matrix attraction checks.
ATTRACTION_CHECKS = (
    ([[0, 1], [4, 0]], [1, 2]),
    ([[0, 1], [4, 0]], [1, 1]),
    ([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 0]], [1, 3, 1, 5]),
    ([[0, 1], [2, 0]], [1, 1]),
)

PINNED_ATTRACTION = (
    "3bb29a1a486e461fb6e8aa1e1358f5f68873e99bd729dedea6c52a210e6b72b0",
    "4381dc1e2cffb15a1947b17dd09364a82013170a24f0bfb4ad1e875fcd429a48",
    "74fcba3310d5f194a48393807b883aaafc3a4d593f6e53cf29b8bea973f27ea4",
    "810d1bcd247ae21f7a652242d6332a24f3ea169e983d2cbc4c498ee0a9d48ad6",
)


def report_digest(i: int, problem: dict, flags: dict, workdir: Path) -> str:
    path = workdir / "problem.json"
    path.write_text(json.dumps(problem))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.run(str(path), **flags)
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    record = repr((i, code, stdout.getvalue(), stderr.getvalue()))
    return hashlib.sha256(record.encode()).hexdigest()


def report_digests(workload: str, count: int, workdir: Path) -> list[str]:
    return [report_digest(i, *workloads.make_problem(workload, SEED, i), workdir) for i in range(count)]


def wide_digests(workdir: Path) -> list[str]:
    return [
        report_digest(
            i,
            {"kind": "inclusion_check", "a": {"circulant": a}, "b": {"circulant": b}},
            dict(workloads.DEFAULT_FLAGS),
            workdir,
        )
        for i, (a, b) in enumerate(WIDE_PAIRS)
    ]


def analysis_digests(workdir: Path) -> list[str]:
    return [
        report_digest(i, {"kind": "circulant_analysis", "circulant": row}, dict(workloads.DEFAULT_FLAGS), workdir)
        for i, row in enumerate(ANALYSIS_ROWS)
    ]


def attraction_digests(workdir: Path) -> list[str]:
    return [
        report_digest(
            i,
            {"kind": "attraction_check", "matrix": matrix, "vector": vector},
            dict(workloads.DEFAULT_FLAGS),
            workdir,
        )
        for i, (matrix, vector) in enumerate(ATTRACTION_CHECKS)
    ]


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_reports_match_the_pinned_digests(workload, tmp_path):
    assert report_digests(workload, COUNTS[workload], tmp_path) == list(PINNED[workload])


def test_wide_inclusion_reports_match_the_pinned_digests(tmp_path):
    assert wide_digests(tmp_path) == list(PINNED_WIDE)


def test_circulant_analysis_reports_match_the_pinned_digests(tmp_path):
    assert analysis_digests(tmp_path) == list(PINNED_ANALYSIS)


def test_general_matrix_attraction_reports_match_the_pinned_digests(tmp_path):
    assert attraction_digests(tmp_path) == list(PINNED_ATTRACTION)


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
        print("PINNED_WIDE = (")
        for digest in wide_digests(Path(tmp)):
            print(f'    "{digest}",')
        print(")")
        print("PINNED_ANALYSIS = (")
        for digest in analysis_digests(Path(tmp)):
            print(f'    "{digest}",')
        print(")")
        print("PINNED_ATTRACTION = (")
        for digest in attraction_digests(Path(tmp)):
            print(f'    "{digest}",')
        print(")")
