"""The frozen result records keep the semantics of a frozen dataclass:
construction by position or keyword, equality within one class, the hash
of the field tuple, the ``Name(field=value, ...)`` repr, no assignment or
deletion, and copies and pickles rebuilt through the constructor."""

import copy
import pickle

import pytest

import shellbound as sb


def records() -> dict:
    """One instance of every record class, each from a library result."""
    L = sb.cross_polytope(2)
    order = sb.find_shelling(L).facets
    cert = sb.is_shelling(L, order)
    decomposition = sb.facet_decomposition(L, order)
    report = sb.verify_lower_bound(L, order, 1)
    gubt = sb.gubt_compare(L, 3, 5)
    found = [
        sb.f_vector(L),
        cert.order,
        cert.steps[1],
        cert,
        # the first facet, then the one opposite it: they meet nowhere
        sb.is_shelling(L, order[:1] + order[-1:] + order[1:-1]),
        sb.rho(3, 1),
        sb.split_complexes(L, order, 3),
        sb.check_split_count(L, order, 3, 1),
        sb.find_witness_pair(L, order, 3),
        decomposition.splits[1],
        decomposition,
        report.per_facet[0],
        report,
        sb.corollary_bounds(L, 1),
        gubt.rows[0],
        gubt,
    ]
    return {type(r).__name__: r for r in found}


RECORDS = records()


def fields_of(record) -> dict:
    return {name: getattr(record, name) for name in type(record).__annotations__}


def test_every_record_class_is_covered():
    assert sorted(RECORDS) == sorted([
        "BoundsReport", "CorollaryReport", "FVector", "FacetSplit", "GubtReport",
        "GubtRow", "PerFacetBound", "RhoCoefficient", "ShellingCertificate",
        "ShellingFailure", "ShellingOrder", "ShellingStep", "SplitCountResult",
        "SplitDecomposition", "SplitPair", "WitnessPair",
    ])
    assert all(type(r) is getattr(sb, name) for name, r in RECORDS.items())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    record = RECORDS[name]
    cls = type(record)
    values = fields_of(record)
    assert len(values) >= 2

    for rebuilt in (cls(*values.values()), cls(**values)):
        assert rebuilt == record and not rebuilt != record
        assert hash(rebuilt) == hash(record) == hash(tuple(values.values()))
        assert rebuilt is not record

    # equal only within one class: not to a subclass or a tuple with the
    # same fields
    twin = type("Twin", (cls,), {})(*values.values())
    assert twin != record and record != twin
    assert record != tuple(values.values())

    first = next(iter(values))
    with pytest.raises(AttributeError):
        setattr(record, first, values[first])
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert fields_of(record) == values

    body = ", ".join(f"{k}={v!r}" for k, v in values.items())
    assert repr(record) == f"{name}({body})"


# the records that hold a lattice, directly or through a subcomplex or a
# sub-certificate: a lattice equals only itself
HOLD_A_LATTICE = {
    "FacetSplit", "ShellingCertificate", "ShellingOrder", "ShellingStep",
    "SplitDecomposition", "SplitPair",
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_copy_and_pickle(name):
    record = RECORDS[name]
    shallow = copy.copy(record)
    assert type(shallow) is type(record) and shallow is not record
    assert shallow == record
    assert all(getattr(shallow, f) is getattr(record, f) for f in fields_of(record))

    # a deep copy or a pickle holds a new lattice, equal to nothing but
    # itself, so only the records without one come back equal
    for rebuilt in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(rebuilt) is type(record)
        assert repr(rebuilt) == repr(record)
        assert (rebuilt == record) is (name not in HOLD_A_LATTICE)


def test_shelling_order_checks_its_facets():
    order = RECORDS["ShellingOrder"]
    with pytest.raises(sb.PreconditionViolated):
        sb.ShellingOrder(order.lattice, order.facets[:-1])
    with pytest.raises(sb.PreconditionViolated):
        sb.ShellingOrder(lattice=order.lattice, facets=order.facets + order.facets[:1])


def test_certificate_order_is_cached():
    cert = RECORDS["ShellingCertificate"]
    assert cert.order is cert.order
    assert cert.order.facets == cert.facets
    step = cert.steps[1].sub_certificate
    assert step.order is step.order
    assert step.order.lattice.dim == cert.lattice.dim - 1
