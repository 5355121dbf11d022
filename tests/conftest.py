import math

from hypothesis import HealthCheck, settings, strategies as st

from cltlab import build_family, make_discrete

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@st.composite
def zero_mean_dists(draw, max_blocks=2):
    """Mixtures of two-point zero-mean laws on the grid Z/8.

    Each block puts mass at -i/8 and +j/8 with the weights that zero the
    mean exactly; mixing blocks keeps the mean at zero while producing up to
    four distinct atoms.
    """
    blocks = draw(st.integers(1, max_blocks))
    atoms: dict[float, float] = {}
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(blocks)]
    total = math.fsum(weights)
    for w in weights:
        i = draw(st.integers(1, 16))
        j = draw(st.integers(1, 16))
        xn, xp = -i / 8.0, j / 8.0
        pn = j / (i + j)
        share = w / total
        atoms[xn] = atoms.get(xn, 0.0) + share * pn
        atoms[xp] = atoms.get(xp, 0.0) + share * (1.0 - pn)
    support = sorted(atoms)
    return make_discrete(support, [atoms[x] for x in support])


@st.composite
def zero_mean_families(draw, max_members=3):
    members = draw(st.lists(zero_mean_dists(), min_size=1, max_size=max_members))
    return build_family(members)
