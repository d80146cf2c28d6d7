import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from adl.cli import main
from adl.protocol import (
    Protocol,
    _check_domain,
    alpha_local_spreading,
    alpha_perfect,
    alpha_uniform,
    constant_protocol,
    gamma_fraction,
    hop_distribution,
    infected_count_even,
    load_protocol_table,
    local_hop_target,
    local_spreading_protocol,
    perfect_protocol,
    protocol_from_spec,
    stay_probability_at,
    uniform_protocol,
)
from conftest import nondyadic_table, walk_law


def test_alpha_uniform_values():
    assert alpha_uniform(2, 1) == Fraction(1, 2)
    assert alpha_uniform(4, 2) == Fraction(1, 3)
    assert alpha_uniform(10, 5) == Fraction(1, 6)


def test_alpha_perfect_values():
    assert alpha_perfect(3, 2, 1) == Fraction(1, 3)
    assert alpha_perfect(3, 4, 2) == Fraction(1, 7)
    assert alpha_perfect(4, 2, 1) == Fraction(1, 4)


def test_alpha_local_spreading_values():
    assert alpha_local_spreading(0.5, 2, 1) == 1  # t <= 2/gamma: always stay
    assert alpha_local_spreading(0.5, 10, 1) == 0  # floor advances: must move
    assert alpha_local_spreading(0.25, 10, 1) == 1
    with pytest.raises(ValueError):
        alpha_local_spreading(1.5, 4, 1)


def frozen_alpha_local_spreading(gamma, t: int, h: int) -> int:
    """The earlier stay rule, written out on its own, kept as the reference
    the rule read from local_hop_target must match."""
    g = gamma_fraction(gamma)
    _check_domain(t, h)
    if t * g <= 2:
        return 1
    return 1 if (g * t // 2) == (g * (t + 2) // 2) else 0


def test_alpha_local_spreading_matches_the_written_out_rule():
    gammas = sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q)})
    gammas += [0.3, 0.7, "1/3", "0.05", 0.999]
    cases = 0
    for g in gammas:
        for t in range(2, 81, 2):
            for h in range(1, t // 2 + 1):
                assert alpha_local_spreading(g, t, h) == frozen_alpha_local_spreading(g, t, h)
                cases += 1
    assert cases == 41_000
    # the same refusals, the gamma check first
    for args in [(1.5, 4, 1), (0.5, 3, 1), (0.5, 4, 3), (1.5, 3, 9), ("x", 0, 0)]:
        with pytest.raises(ValueError) as new:
            alpha_local_spreading(*args)
        with pytest.raises(ValueError) as old:
            frozen_alpha_local_spreading(*args)
        assert str(new.value) == str(old.value)


def test_alpha_domain_is_enforced():
    uni = uniform_protocol(3)
    with pytest.raises(ValueError):
        uni.alpha(3, 1)  # odd t
    with pytest.raises(ValueError):
        uni.alpha(4, 3)  # h > t/2
    with pytest.raises(ValueError):
        uni.alpha(4, 0)
    with pytest.raises(ValueError):
        alpha_uniform(0, 1)


def test_load_protocol_table_round_trip():
    proto = load_protocol_table("t,h,alpha\n2,1,0.5\n4,1,0.5\n4,2,0.3333333\n", 3)
    assert proto.t_max == 4
    assert proto.alpha(4, 2) == pytest.approx(0.3333333)
    assert not proto.exact
    with pytest.raises(ValueError):
        proto.alpha(6, 1)  # beyond horizon


@pytest.mark.parametrize(
    "body",
    [
        "3,1,0.5\n",  # odd t
        "2,1,0.5\n4,3,0.1\n4,1,0.2\n4,2,0.2\n",  # h > t/2
        "2,1,1.5\n",  # alpha out of range
        "2,1,0.5\n2,1,0.5\n",  # duplicate
        "2,1,0.5\n6,1,0.5\n6,2,0.5\n6,3,0.5\n",  # gap at t=4
    ],
)
def test_load_protocol_table_rejects(body):
    with pytest.raises(ValueError):
        load_protocol_table("t,h,alpha\n" + body, 3)


def test_load_protocol_table_lists_small_gaps_in_full():
    with pytest.raises(ValueError) as exc:
        load_protocol_table("t,h,alpha\n2,1,0.5\n6,1,0.5\n", 3)
    assert str(exc.value) == (
        "protocol table has gaps: missing [(4, 1), (4, 2), (6, 2), (6, 3)]"
    )


def test_load_protocol_table_accepts_bytes():
    proto = load_protocol_table(b"t,h,alpha\n2,1,0.25\n", 4)
    assert proto.alpha(2, 1) == 0.25


def test_hop_distribution_first_step_forced():
    for proto in (uniform_protocol(3), perfect_protocol(4), constant_protocol(3, 1)):
        hop = hop_distribution(proto, 2)
        assert hop[2][0] == 1


def test_uniform_hop_law_exact_to_60():
    for d in (3, 4, 5):
        hop = hop_distribution(uniform_protocol(d), 60)
        for t in range(2, 61, 2):
            for p in hop[t]:
                assert p == Fraction(2, t)


def test_uniform_hop_law_float_mode():
    hop = hop_distribution(replace(uniform_protocol(3), exact=False), 60)
    for t in range(2, 61, 2):
        for p in hop[t]:
            assert type(p) is float
            assert abs(p - 2 / t) <= 1e-12


def test_hop_normalization_all_builtins():
    protos = [uniform_protocol, perfect_protocol, lambda d: local_spreading_protocol(d, 0.5)]
    for d in (3, 4, 5):
        for make in protos:
            hop = hop_distribution(make(d), 60)
            for t in range(2, 61, 2):
                assert sum(hop[t]) == 1


def test_perfect_protocol_equal_likelihood_identity():
    for d in (3, 4, 5):
        hop = hop_distribution(perfect_protocol(d), 30)
        for t in range(2, 31, 2):
            n_t = infected_count_even(d, t)
            for h, p in enumerate(hop[t], 1):
                assert p * (n_t - 1) == d * (d - 1) ** (h - 1)


def test_hop_support_is_clamped():
    # one row per even t up to the horizon, entry h - 1 for 1 <= h <= t/2
    hop = hop_distribution(uniform_protocol(3), 10)
    assert list(hop) == [2, 4, 6, 8, 10]
    assert [len(row) for row in hop.values()] == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError, match="even integer >= 2"):
        hop_distribution(uniform_protocol(3), 7)


def test_stay_probability_uniform_is_half():
    uni = uniform_protocol(3)
    for t_odd in range(3, 42, 2):
        assert stay_probability_at(uni, t_odd) == Fraction(1, 2)


def test_stay_probability_degenerate_protocols():
    always = constant_protocol(3, 1)
    never = constant_protocol(3, 0)
    assert stay_probability_at(always, 9) == 1
    assert stay_probability_at(never, 9) == 0


def test_stay_probability_is_the_walk_stay_mass():
    # the mass the walk itself puts on vs_prev == vs_now at odd t
    for d in (3, 4):
        table = nondyadic_table(d)
        cases = [(proto, range(3, 10, 2)) for proto in (
            perfect_protocol(d), local_spreading_protocol(d, "1/2"), constant_protocol(d, 0))]
        cases.append((table, range(3, table.t_max + 2, 2)))
        for protocol, ts in cases:
            for t in ts:
                got = stay_probability_at(protocol, t)
                want = sum(p for (prev, now), p in walk_law(protocol, t).items() if prev == now)
                case = (protocol.name, d, t)
                if protocol.exact:
                    assert got == want, case
                else:
                    assert math.isclose(got, want, rel_tol=1e-12), case


def test_kept_hop_rows_extended_in_pieces_equal_a_fresh_protocols():
    # rows kept from an early request (t=4) and extended later (t=60) are
    # the rows a fresh protocol computes in one go, exactly and on the float twin
    makers = (uniform_protocol, perfect_protocol, lambda d: local_spreading_protocol(d, "1/2"))
    for d in (3, 4):
        for make in makers:
            for exact in (True, False):
                grown, fresh = (p if exact else replace(p, exact=False) for p in (make(d), make(d)))
                grown.hop_row(4)
                grown.snapshot_weights(9, ball=False)
                fresh.hop_row(60)
                got = [grown.hop_row(t) for t in range(2, 61, 2)]
                want = [fresh.hop_row(t) for t in range(2, 61, 2)]
                assert got == want, (grown.name, d, exact)
                assert all(type(p) is (Fraction if exact else float) for row in got for p in row)


def test_snapshot_weights_are_a_new_list_every_call():
    # a caller that mutates the list it got changes no later call, and so
    # does one that mutates a row of the hop table
    proto = uniform_protocol(3)
    for t, ball in ((6, True), (7, True), (7, False)):
        first = proto.snapshot_weights(t, ball)
        want = list(first)
        first[0] = 99
        first.append(1)
        assert proto.snapshot_weights(t, ball) == want, (t, ball)
    hop = hop_distribution(proto, 8)
    for row in hop.values():
        row[0] = 99
        row.append(1)
    assert proto.hop_row(6) == [Fraction(1, 3)] * 3
    assert proto.snapshot_weights(8, True) == [Fraction(1, 4)] * 4
    assert hop_distribution(proto, 8) == {t: [Fraction(2, t)] * (t // 2) for t in (2, 4, 6, 8)}
    assert stay_probability_at(proto, 7) == Fraction(1, 2)


def test_local_protocol_hop_is_deterministic_floor():
    g = 0.5
    hop = hop_distribution(local_spreading_protocol(3, g), 40)
    for t in range(2, 41, 2):
        target = local_hop_target(g, t)
        assert hop[t][target - 1] == 1
        assert all(p == 0 for h, p in enumerate(hop[t], 1) if h != target)


def test_local_gamma_is_read_as_written():
    # a float 0.3 is the decimal 3/10, not the binary float just below it,
    # which would put h_20 at floor(0.2999... * 10) = 2 instead of 3
    assert local_hop_target(0.3, 20) == 3
    decimal = hop_distribution(protocol_from_spec(3, {"name": "local", "gamma": 0.3}), 40)
    ratio = hop_distribution(protocol_from_spec(3, {"name": "local", "gamma": "3/10"}), 40)
    assert decimal == ratio
    assert decimal[20][3 - 1] == 1
    third = protocol_from_spec(3, {"name": "local", "gamma": "1/3"})
    assert hop_distribution(third, 12)[12][2 - 1] == 1
    with pytest.raises(ValueError, match="numeric 'gamma'"):
        protocol_from_spec(3, {"name": "local", "gamma": "1/0"})
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        protocol_from_spec(3, {"name": "local", "gamma": "1e-999999999"})


def test_hop_csv_round_trip(capsys):
    assert main(["hopdist", "--d", "3", "--protocol", "uniform", "-T", "6", "--exact"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,h,p"
    rows = {tuple(line.split(",")[:2]): line.split(",")[2] for line in lines[1:]}
    assert rows[("6", "2")] == "1/3"
    assert main(["hopdist", "--d", "3", "--protocol", "uniform", "-T", "6"]) == 0
    assert "0.3333333333333333" in capsys.readouterr().out


def test_table_protocol_hop_matches_builtin():
    # a table dumped from the uniform protocol reproduces its hop law
    rows = ["t,h,alpha"]
    for t in range(2, 11, 2):
        for h in range(1, t // 2 + 1):
            rows.append(f"{t},{h},{float(alpha_uniform(t, h))!r}")
    proto = load_protocol_table("\n".join(rows) + "\n", 3)
    hop = hop_distribution(proto, 12)
    for t in range(2, 13, 2):
        for p in hop[t]:
            assert p == pytest.approx(2 / t, abs=1e-12)
    with pytest.raises(ValueError, match="T=14 needs alpha at t=12 but the protocol stops at 10"):
        hop_distribution(proto, 14)


@given(st.data())
def test_dp_conserves_mass_for_arbitrary_tables(data):
    # the recurrence keeps sum_h p(t, h) = 1 whatever the stay probabilities
    horizon = 12
    table = {
        (t, h): Fraction(data.draw(st.integers(0, 8), label=f"alpha({t},{h})"), 8)
        for t in range(2, horizon, 2)
        for h in range(1, t // 2 + 1)
    }
    proto = Protocol(d=3, name="random-table", _alpha=lambda t, h: table[(t, h)])
    hop = hop_distribution(proto, horizon)
    for t in range(2, horizon + 1, 2):
        assert sum(hop[t]) == 1
        assert all(p >= 0 for p in hop[t])


def test_exact_mode_requires_exact_protocol(capsys, tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("t,h,alpha\n2,1,0.5\n")
    proto = load_protocol_table(table.read_text(), 3)
    assert all(type(p) is float for row in hop_distribution(proto, 2).values() for p in row)
    argv = ["hopdist", "--d", "3", "--protocol", "table", "--table", str(table), "-T", "2"]
    assert main([*argv, "--exact"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "protocol 'table' cannot provide exact alphas" in err
    with pytest.raises(ValueError, match="no exact alpha values"):
        proto.alpha_exact(2, 1)
