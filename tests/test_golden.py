"""Each row of the golden-digest table, run in process (see golden.py)."""

import json

import pytest

import golden

RECORDED = json.loads(golden.DIGESTS.read_text(encoding="utf-8"))


def test_every_recorded_digest_has_its_row():
    assert {key.partition("/")[0] for key in RECORDED} == {row.id for row in golden.ROWS}


@pytest.mark.parametrize("row", golden.ROWS, ids=lambda row: row.id)
def test_row(row, tmp_path):
    golden.check(row, RECORDED, tmp_path)
