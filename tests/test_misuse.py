"""The misuse table's own checks: its ids are unique, every command and
every refusal exit code has a row, and a fixed few rows also hold in a
fresh interpreter, which sees what a user sees (in process, pytest turns
numpy's RuntimeWarnings into errors). ``python tests/misuse.py`` runs
every row fresh."""

import pytest

import misuse
from newsvar import cli


def test_ids_are_unique():
    ids = [row.id for row in misuse.ROWS]
    assert len(set(ids)) == len(ids)


def test_every_command_and_exit_code_has_a_row():
    assert {row.args.split()[0] for row in misuse.ROWS} == set(cli.COMMANDS)
    assert {row.code for row in misuse.ROWS} == {2, 3, 4}


FRESH = (
    "test_cli.py::TestConfigAndExitCodes::test_simulate_refuses_explosive_dgp[300]",
    "test_cli.py::TestConfigAndExitCodes::test_simulate_refuses_explosive_dgp[2000]",
    "test_misuse.py::test_row[bad-cell-quoted]",
    "test_cli.py::TestLp::test_overflowing_outcome_is_numerical_error",
    "test_cli.py::TestLp::test_overflowing_band_leaves_no_artifact",
)


@pytest.mark.parametrize("row_id", FRESH, ids=[row_id.rpartition("::")[2] for row_id in FRESH])
def test_row_holds_fresh(row_id, misuse_bases, tmp_path):
    [row] = [row for row in misuse.ROWS if row.id == row_id]
    misuse.check(row, misuse_bases, tmp_path, misuse.fresh)


misuse.host(globals())
