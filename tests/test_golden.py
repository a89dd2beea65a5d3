"""CLI stdout pinned byte for byte.

Each digest is the sha256 of the CLI's stdout for one command.  The
sweep digests were recorded before the sweep internals were simplified,
the first ``heat`` and ``isometric`` digests before the analytic layer
was cut down to its exact results, and the ``spectrum``, ``isospectral``
and remaining ``isometric`` digests before the record parsers were
deleted and huge paddings were applied as one convolution.  The text
and csv digests from ``spectrum 12 1 5 --padding 1 --kmax 12`` on, and
the parser actions in ``PARSER_ACTIONS``, were recorded before the CLI
was cut down to one argument helper and one csv projection.  Any change
to verdicts, witnesses, ``first_differing_k``, ``pairs_checked``, heat
coefficients, multiplicities or record formatting shows up here as a
digest mismatch.
"""

import argparse
import hashlib

import pytest

from orbilens.cli import build_parser, main

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
    "spectrum 9 1 3 --kmax 40 --format json-lines": (
        "72bde33e076079dfa1a58397bf467ac4ae2b4fd4ab5bebba2ab2f5647653e4e8",
        1968,
    ),
    "spectrum 9 1 3 --kmax 40 --format csv": (
        "1955c363975f738c0f5b011641b93ebcd6d69837b5f9cbc03e1d2f62217a1d17",
        426,
    ),
    "spectrum 9 1 3 --kmax 40 --format text": (
        "6efaa74a514491a5ec6fc7cac9212fd8e179e3bcb84aa184e4f2f03693e69553",
        1600,
    ),
    "spectrum 12 1 5 --padding 1 --kmax 60 --format json-lines": (
        "af04cadf9d206510020a98b2e00de7e22af99c4c2d998fcc390288b217a7cd0f",
        2939,
    ),
    "spectrum 7 1 2 --padding 9 --kmax 6 --format csv": (
        "e79ad7aebd9ff1433a248f33d7f99abb2a885c3e84a045b35b700fc54336c21d",
        86,
    ),
    "isospectral 195 3 5 --format json-lines -- 6 35": (
        "239a39ff273c2f87cba9f68beb4bda391dcbe0d03a9cc3f6385e5c5596c19c0b",
        301,
    ),
    "isospectral 195 3 5 --format csv -- 6 35": (
        "ba85a2b7670ad6c0b2ba2e1a29873542de650b5b7aa3669b0237b638f94424e2",
        94,
    ),
    "isospectral 195 3 5 --format text -- 6 35": (
        "df452d2bf8be5f0231f361afca9a2859a908fe5c77d76300cd72633dc5b0fdec",
        39,
    ),
    "isospectral 7 1 2 --format json-lines -- 2 3": (
        "01e48bf5f9f44ad1e6aee66070dd69a5ca9e8ec459bb2a51b0f74824b334bb54",
        299,
    ),
    "isometric 7 1 2 --format csv -- 2 3": (
        "42ca4eaf992ba0809df2c616ecc5b05a5200a03057de617389e08978147fcf52",
        96,
    ),
    "isometric 7 1 2 --format text -- 2 3": (
        "e331a55aab0739baa72458e0b8b418082110224da89e2985098e5e831cca9a28",
        44,
    ),
    "isometric 195 3 5 --format json-lines -- 6 35": (
        "ae4d14fd0bd67e70b8debe1b947d27d798d688beda45e87375b15e8e6db0e1b0",
        193,
    ),
    "spectrum 12 1 5 --padding 1 --kmax 12 --format text": (
        "a1e94769560dd32fc3da9420f1c3aad73c1ab116c87717252554537731664c0f",
        567,
    ),
    "spectrum 12 1 5 --padding 1 --kmax 12 --format csv": (
        "f13de65f53c953f4ee541ea87bae08356d2f695fb509b6f06371932589b3eefd",
        129,
    ),
    "spectrum 1 --kmax 3 --format text": (
        "a1c540e67c56ad2662d149e44e4aa2b4788ac4b3a5ec37e7e7e9a4587954f20e",
        231,
    ),
    "spectrum 1 --kmax 3 --format csv": (
        "ddc385de113df11327cd7f3d7758897644a8e1c68f5aacd06f29fe8873dd56b3",
        52,
    ),
    "isometric 195 3 5 --format text -- 6 35": (
        "cfe72034a9f298fb79a6c1f2302673bb449c826d446b3efafdde95e6c48dc3ca",
        3,
    ),
    "isometric 195 3 5 --format csv -- 6 35": (
        "752f28846f1598207504574fc95649b4d6cbe825ac5c86b4bc4d755a5b79ee31",
        59,
    ),
    "isospectral 7 1 2 --format text -- 2 3": (
        "9180a58acfe8766b4dad6d06571d8f0e08e57d97992e19f76e696a2021ece79c",
        43,
    ),
    "isospectral 7 1 2 --format csv -- 2 3": (
        "83a793a53e264edf320bb49f75aa7ed006dbe30cfe28fbbef1cbcf65ec5e1c52",
        93,
    ),
    "heat 195 3 5 --order 2 --format text": (
        "a09546e9d5399e6d519d35783c78a15566ea2bf162435f7f80bb35d29ec5abc6",
        224,
    ),
    "heat 195 3 5 --order 2 --format json-lines": (
        "f5393778a57b1e6cc1d1d3d44dbdec2476a59c07e25246d76bb1c54611595154",
        411,
    ),
    "heat 195 3 5 --order 2 --format csv": (
        "634f25dd1234dd966ead19690b4805e61fdcafcc3c61fcc9f1cc7e2acd8c3948",
        102,
    ),
    "sweep 8 24 --mode rigidity --padding 1 --format csv": (
        "514f87faacc12949ad2efc14bcb90bb510b81152b6b115190ab2c4817c89f2cd",
        260,
    ),
    "sweep 8 24 --mode rigidity --padding 1 --format text": (
        "6a3b6d63701406b78fda7f0a21e2d46e02770b76de57426126a17fee61df7bcd",
        866,
    ),
    "sweep 8 24 --mode heat-degenerate --padding 1 --format csv": (
        "5065e309f656327f608a041612dcc5bf81d70df980c23226903a9aea1025931f",
        1325,
    ),
    "sweep 8 24 --mode heat-degenerate --padding 1 --format text": (
        "3e0c0a6615ddfd94df219b74deb44ada3fb45d42b95a49089c543f3222adbf35",
        2752,
    ),
    "sweep 1 9 --format text": (
        "9a16725898817cff10f58a743b5d97190613222eb694c4d373f2dde92166c1c7",
        473,
    ),
    "sweep 1 9 --mode heat-degenerate --format csv": (
        "0a3f1461199922ce113dde9ca282e14355814768de3819047e35c9e84c969c69",
        46,
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_sweep_stdout_matches_golden(capsys, command):
    assert main(command.split()) == 0
    data = capsys.readouterr().out.encode()
    digest, size = GOLDEN[command]
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


# Per subcommand: (dest, option strings, default, type name, nargs, choices)
# of every argparse action, positionals first in their order, then the
# options sorted by dest.  Help texts are not pinned.
PARSER_ACTIONS = {
    "spectrum": [
        ("q", (), None, "int", None, None),
        ("rotations", (), None, "int", "*", None),
        ("format", ("--format",), "text", None, None, ("text", "json-lines", "csv")),
        ("help", ("-h", "--help"), "==SUPPRESS==", None, 0, None),
        ("kmax", ("--kmax",), 10, "int", None, None),
        ("out", ("--out",), None, None, None, None),
        ("padding", ("--padding",), 0, "int", None, None),
    ],
    "isometric": [
        ("q", (), None, "int", None, None),
        ("rotations", (), None, "int", "+", None),
        ("format", ("--format",), "text", None, None, ("text", "json-lines", "csv")),
        ("help", ("-h", "--help"), "==SUPPRESS==", None, 0, None),
        ("out", ("--out",), None, None, None, None),
        ("padding", ("--padding",), 0, "int", None, None),
    ],
    "isospectral": [
        ("q", (), None, "int", None, None),
        ("rotations", (), None, "int", "+", None),
        ("format", ("--format",), "text", None, None, ("text", "json-lines", "csv")),
        ("help", ("-h", "--help"), "==SUPPRESS==", None, 0, None),
        ("out", ("--out",), None, None, None, None),
        ("padding", ("--padding",), 0, "int", None, None),
    ],
    "heat": [
        ("q", (), None, "int", None, None),
        ("rotations", (), None, "int", "+", None),
        ("format", ("--format",), "text", None, None, ("text", "json-lines", "csv")),
        ("help", ("-h", "--help"), "==SUPPRESS==", None, 0, None),
        ("order", ("--order",), 3, "int", None, None),
        ("out", ("--out",), None, None, None, None),
        ("padding", ("--padding",), 0, "int", None, None),
    ],
    "sweep": [
        ("qmin", (), None, "int", None, None),
        ("qmax", (), None, "int", None, None),
        ("format", ("--format",), "text", None, None, ("text", "json-lines", "csv")),
        ("help", ("-h", "--help"), "==SUPPRESS==", None, 0, None),
        ("mode", ("--mode",), "rigidity", None, None, ("rigidity", "heat-degenerate")),
        ("out", ("--out",), None, None, None, None),
        ("padding", ("--padding",), 0, "int", None, None),
        ("threads", ("--threads",), 1, "int", None, None),
    ],
}


def _position(action):
    # Positionals keep their order (the sort is stable); options sort by dest.
    return (bool(action.option_strings), action.dest if action.option_strings else "")


def parser_actions(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [
            (a.dest, tuple(a.option_strings), a.default,
             getattr(a.type, "__name__", a.type), a.nargs, a.choices)
            for a in sorted(p._actions, key=_position)
        ]
        for name, p in sub.choices.items()
    }


def test_parser_actions_unchanged():
    assert parser_actions(build_parser()) == PARSER_ACTIONS
