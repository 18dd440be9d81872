"""Golden reports: `folmod moduli --format json` on the bundled examples
and on the seed-0 geodesics of the benchmark.

The sha256 of each JSON report is fixed here, so any change to a report
byte, or to a classified moduli group, fails this test.  A change that
moves a report on purpose must say why and update the digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from folmod.cli import main
from folmod.examples import EXAMPLES, example_doc
from test_pipeline import _geodesic_doc

GOLDEN_SHA256 = {
    0: "0746b23dba2d82d78bd3acb10bf47a6c05ce3a5aead4d34f63373ad6f31e354f",
    1: "04c2195a5756fafd9fb072befb68f9796187704de8ae1efc771ed896afade2d7",
    2: "26b2bce3449da0467a3c31b34ce5b8999d73729ba784024dfac57d83b311bebc",
    3: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    4: "096b20e81bd21d6a4a8c44a267ec0eb82c6fa630eeb3ef1cddf42974acb2e3b0",
    5: "e82a24a619ce76aa41b15b43cc6c8cb03350ec6f4bcd80b15fe63b605b845b0d",
    6: "61eb403f7297613daf5a1d02643c818c69dd375f438c99ca4f33bde5b03aa2b1",
}

EXAMPLE3_STDERR = "NotFiniteType: cut component containing 0: red part disconnected\n"


@pytest.mark.parametrize("n", EXAMPLES)
def test_moduli_json_report_is_golden(n: int, tmp_path, capsys) -> None:
    path = tmp_path / f"ex{n}.json"
    path.write_text(json.dumps(example_doc(n), sort_keys=True, indent=2), encoding="utf-8")
    code = main(["moduli", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    if n == 3:
        assert (code, err) == (3, EXAMPLE3_STDERR)
    else:
        assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SHA256[n]


GEODESIC_SHA256 = {
    3: "8940355cfb3165fe345972a3aedb6be5d2e6a3777278a4b304c3ae381a5a5b67",
    5: "4feaadca6ccc035bbc59c674f00f134aba8590fb67b84b105d4acf788e774647",
    9: "3d72e3ace7732a36b4f577b8318cfa1b6fb5cbcacf22cd63db7c38b23ce7e60c",
    17: "f0732774830ada5e9ab47c3c0aa1cc8439190466614925db20966b4b0bd704fe",
}


@pytest.mark.parametrize("k", sorted(GEODESIC_SHA256))
def test_moduli_json_report_on_a_geodesic_is_golden(k: int, tmp_path, capsys) -> None:
    path = tmp_path / f"geodesic{k}.json"
    path.write_text(json.dumps(_geodesic_doc(k), sort_keys=True, indent=2), encoding="utf-8")
    assert main(["moduli", str(path), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GEODESIC_SHA256[k]
