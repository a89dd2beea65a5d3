"""CLI stdout pinned byte for byte.

Each digest is the sha256 of the CLI's stdout for one command.  The
sweep digests were recorded before the sweep internals were simplified,
the ``heat`` and ``isometric`` digests before the analytic layer was cut
down to its exact results.  Any change to verdicts, witnesses,
``first_differing_k``, ``pairs_checked``, heat coefficients or record
formatting shows up here as a digest mismatch.
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
    "heat 195 3 5 --format json-lines": (
        "6e30e6a3f2a4da6b3a0de6ed2f684fccaa440538948a5518d0e854859c0df593",
        512,
    ),
    "heat 195 3 5 --format csv": (
        "4f67d3e0bc32d83cf4bf05bb1bdaab73939eaff00f34a7f4ed44c653cf9b4d07",
        140,
    ),
    "heat 195 3 5 --format text": (
        "f8b02cfb89741c3bf5b74829af665a0cd35fbe157ac0fb8c2da52535a2616ebf",
        301,
    ),
    "heat 195 6 35 --format json-lines": (
        "4964c7bd78323cc0bfda3b50bfbb7de41e5aefd04cb1a53afbe50c1803a962bb",
        514,
    ),
    "heat 195 6 35 --format csv": (
        "4f67d3e0bc32d83cf4bf05bb1bdaab73939eaff00f34a7f4ed44c653cf9b4d07",
        140,
    ),
    "heat 195 6 35 --format text": (
        "9925dbc9d7aeac193580b79e5536cd0a988429dc43c696f6b04cbacd9daf93f3",
        302,
    ),
    "heat 7 1 2 --format json-lines": (
        "fa78cd31e2c13a0fd604baf4174e47a83af731970adaa877c2f9e28b334c64c3",
        499,
    ),
    "heat 7 1 2 --format csv": (
        "224655b0d91e6db8e57338a5ad457654f012af296b32160f45486bdf8b15e040",
        131,
    ),
    "heat 7 1 2 --format text": (
        "5af565b1bb31677f593f5581f728f126306ed70800d5c23cf772b0eddb169700",
        296,
    ),
    "isometric 7 1 2 --format json-lines -- 2 3": (
        "d885ef055ef4f458608ad3f5b7ef614ec97e46de13a61267d2d935be1c8f1432",
        228,
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_sweep_stdout_matches_golden(capsys, command):
    assert main(command.split()) == 0
    data = capsys.readouterr().out.encode()
    digest, size = GOLDEN[command]
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest
