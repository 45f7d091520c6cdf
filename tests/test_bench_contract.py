"""perfbench checks amcheck's results with code of its own: its certificate
names the players by string, and perfbench/run.py builds the exact text
`amc solve-game` must print.  These tests fail when amcheck's side of that
contract changes, instead of the certificate passing vacuously or every
parity query failing."""

from amcheck.cli import main
from amcheck.mcgame import EXISTS, FORALL, import_pgsolver, zielonka_solve
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
