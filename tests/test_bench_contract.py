"""perfbench checks amcheck's results with code of its own: its certificate
names the players by string, and perfbench/run.py builds the exact text
`amc solve-game` must print.  These tests fail when amcheck's side of that
contract changes, instead of the certificate passing vacuously or every
parity query failing."""

import hashlib

import pytest

from amcheck.cli import main
from amcheck.mcgame import EXISTS, FORALL, import_pgsolver, zielonka_solve
from amcheck.model import model_to_json
from helpers import load_perfbench

# Exists wins 40 on its even loop, Forall wins 7 on its odd loop, and 13 has
# to move to 7; ids are sparse and not in order.
GAME = "parity 40;\n40 2 0 40,7;\n7 1 1 7,40;\n13 3 0 7;\n"


def test_certificate_names_the_players_as_amcheck_does():
    certify = load_perfbench("certificate").certify
    assert load_perfbench("certificate").EXISTS == EXISTS
    # a Forall position claimed for Forall with no move is a defect only
    # where the certifier's "Forall" is amcheck's FORALL
    assert certify((FORALL,), (1,), ((0,),), (FORALL,), {}) == [
        "Forall has no legal strategy move at its position 0"
    ]
    assert certify((FORALL,), (1,), ((0,),), (FORALL,), {0: 0}) == []


def test_certificate_catches_every_flipped_winner():
    certify = load_perfbench("certificate").certify
    game, _ = import_pgsolver(GAME)
    solution = zielonka_solve(game)
    assert solution.winners == (EXISTS, FORALL, FORALL)
    assert certify(game.owners, game.priorities, game.successors, solution.winners, solution.strategy) == []
    for v in range(len(game)):
        winners = list(solution.winners)
        winners[v] = FORALL if winners[v] == EXISTS else EXISTS
        assert certify(game.owners, game.priorities, game.successors, winners, solution.strategy), v


def test_solve_game_prints_what_perfbench_expects(capsys, tmp_path):
    path = tmp_path / "game.pg"
    path.write_text(GAME)
    game, ids = import_pgsolver(GAME)
    expected = "".join(f"{i}: {winner}\n" for i, winner in zip(ids, zielonka_solve(game).winners))
    assert expected == "40: Exists\n7: Forall\n13: Forall\n"
    assert main(["solve-game", "--in", str(path)]) == 0
    assert capsys.readouterr().out == expected


# sha256 of model_to_json of every frame perfbench's workloads draw, before
# any relabelling.  perfbench/expected.json is keyed by these frames' state
# ids, so a generator or writer change that alters one byte of them would
# leave its verdicts checked against a different frame.
FRAME_DIGESTS = {
    ("castle", "castle"): "eb1301ed753cb273d45e603a8030320e885bf75cfe7c1fd2064cbfbbf270eea8",
    ("modulo", "a2-m2"): "38adc1083c66275d935348e8af17c597097433cfc04a821afe0cec4c909df1cc",
    ("modulo", "a2-m3"): "ecde810d671dc8c9fbb93b4b97b11c93d29939797b7d22db1a0005c22ed2afa0",
    ("modulo", "a2-m4"): "1af7ae270838dd494d9547025650eff14d6b1a15f3fa78fcf8146daab4c05aa7",
    ("modulo", "a2-m5"): "e87552500b7c387f65ed0b13cc6d2036553c9c61096121ea8f2feba87ea4a1cb",
    ("modulo", "a2-m6"): "c1d0c704cf2c8a4d5268d4f539e7c5a4fe7068ac0c4afb3a11db7ad004d8600e",
    ("modulo", "a2-m7"): "181c02221bb805a87dd8aa0034b94dade32ddc1f5f43bbcaabc49b4f4e0bb59b",
    ("modulo", "a2-m8"): "fcdecadfe5f499c4991e96a6ef2c61b88a93cbbc6a4220ccb3c28c3707a9f17d",
    ("modulo", "a2-m9"): "2adaedb0149b45ee94dd6df1270b7e713219544f4aaec4005f61324759c4d2be",
    ("modulo", "a2-m10"): "dcb46f1cc8db9ce87d2eb1a069176cceca9d9c2e5659402b6b409bdee5c002ec",
    ("modulo", "a3-m2"): "6bafa17fbec446795781c214dd4b386ef7b587f7093801b2f3fd1283416fd26c",
    ("modulo", "a3-m3"): "f07cbc2434f8ed2c5f4fd3ddd028a226de06813f40a1d7ed8e8bcb2b2b20107c",
    ("modulo", "a3-m4"): "6e6bd69ebb2c1b2694ecf883481dd4cda26ee933e4e6896ef2d543c3a5ee80b3",
    ("modulo", "a3-m5"): "3bf6276a0575da225371138bed699d0850c4c24bcc682895818d8bebc95df087",
    ("modulo", "a3-m6"): "79c304a05bb5ae3f820489e14169250531ffdb1982ecef25fde29bcf172ba8df",
    ("ladder", "f1"): "a55d76b964ac0a9115abd62abacaf32031a634bb77b6cf565132eefe897385d4",
    ("ladder", "f2"): "ec5153cb7ce52dd071f9c286faa9cad3a12d56e8b890fcf5ae0989e00b3cd5c6",
    ("parity", "f1"): "24ecea36e61e016661d4a9dd5b14b6bd53f12efbc398cc0d25164b252687e35d",
    ("parity", "f2"): "081978dd7378f79aef123af0f05de310d7f262a2c73eb3fce9a5a3e46789fa0d",
    ("parity", "f3"): "45bcda86d8ccbe07d69db1c9872544545a89145e6b0e80d8076260ea6f8645cc",
    ("parity", "f4"): "14eac6311be32a924b8ee47d580af9920adcaefd265b0b8a791287d08311c057",
}


@pytest.mark.parametrize("workload", ["castle", "modulo", "ladder", "parity"])
def test_benchmark_frames_keep_their_text(workload):
    digests = {
        (workload, inst.key): hashlib.sha256(model_to_json(inst.frame).encode()).hexdigest()
        for inst in load_perfbench("workloads").instances(workload)
    }
    assert digests == {key: d for key, d in FRAME_DIGESTS.items() if key[0] == workload}
