"""Sweep stdout pinned byte for byte.

Each digest is the sha256 of the CLI's stdout for one sweep, recorded
before the sweep internals were simplified.  Any change to verdicts,
``first_differing_k``, ``pairs_checked`` or record formatting shows up
here as a digest mismatch.
"""

import hashlib

import pytest

from orbilens.cli import main

GOLDEN = {
    "sweep 8 40 --mode rigidity --padding 0 --format json-lines": (
        "baeab4f757c863eaa8ff7cb84d0dbeccfa0de15950d168dee588a05f38cd62f3",
        2668,
    ),
    "sweep 8 40 --mode rigidity --padding 1 --format json-lines": (
        "4e4e2d029062384bb33b2876952b9fb522dfc6833c7de880f009a016ebcc933e",
        2668,
    ),
    "sweep 8 60 --mode heat-degenerate --padding 0 --format json-lines": (
        "fa8956a051d7b7281cdde0321d74b1d8670499e78e8e8742a98090610726baa9",
        150249,
    ),
    "sweep 8 60 --mode heat-degenerate --padding 1 --format json-lines": (
        "615982ad632596ee96547d993d013a32bf9affaba4cef184b76e462bfcb461d2",
        150249,
    ),
    "sweep 195 195 --mode heat-degenerate --padding 1 --format json-lines": (
        "6685792119bb564bcf7b0e9adceae3ffdc538496327bb6321f6435bdab5529d6",
        88942,
    ),
    "sweep 8 24 --mode rigidity --padding 0 --format csv": (
        "514f87faacc12949ad2efc14bcb90bb510b81152b6b115190ab2c4817c89f2cd",
        260,
    ),
    "sweep 8 24 --mode rigidity --padding 0 --format text": (
        "6a3b6d63701406b78fda7f0a21e2d46e02770b76de57426126a17fee61df7bcd",
        866,
    ),
    "sweep 8 24 --mode heat-degenerate --padding 0 --format csv": (
        "0a4b8b37eb9349bde543f24bd86c1ea41aab0bdcc7ddb9e5b018e5f6d0bdd628",
        1221,
    ),
    "sweep 8 24 --mode heat-degenerate --padding 0 --format text": (
        "5615208103c512531ffd6bcfb06419de8d1dda748152f4507e53d718cedc163f",
        2648,
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_sweep_stdout_matches_golden(capsys, command):
    assert main(command.split()) == 0
    data = capsys.readouterr().out.encode()
    digest, size = GOLDEN[command]
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest
