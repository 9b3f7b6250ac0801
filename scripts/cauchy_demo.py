#!/usr/bin/env python3
"""A small tour of the convolution category over the integer base.

Builds int[Z2] and int[Z3], composes a few coefficient arrows, and shows the
forgetful sum, the two embeddings, and the character-sum substitution.
"""

from pcmcat.category import from_semiring
from pcmcat.cauchy import (
    cauchy_product,
    eta_functor,
    gamma_functor,
    sigma_functor,
    star_embed,
)
from pcmcat.fincat import cyclic_category
from pcmcat.universal import dft_substitute


def main() -> None:
    base = from_semiring("int")
    cc = cauchy_product(base, cyclic_category(2))
    obj = cc.objects[0]

    f = cc.make_arrow(obj, obj, {"z0": 1, "z1": 1})
    print(f"f            = {f}")
    print(f"f . f        = {cc.compose(f, f)}")
    print(f"identity     = {cc.identity(obj)}")

    sigma = sigma_functor(cc)
    print(f"sigma(f.f)   = {sigma.on_arr(cc.compose(f, f))}")

    eta = eta_functor(cc, "*")
    print(f"eta(5)       = {eta.on_arr(5)}")
    print(f"sigma(eta 5) = {sigma.on_arr(eta.on_arr(5))}")

    gamma = gamma_functor(cc, "*")
    print(f"gamma(z1)    = {gamma.on_arr('z1')}")
    print(f"3 star z1    = {star_embed(cc, 3, 'z1')}")

    cc3 = cauchy_product(base, cyclic_category(3))
    obj3 = cc3.objects[0]
    shift = cc3.make_arrow(obj3, obj3, {"z1": 1})
    twice = cc3.compose(shift, shift)
    print(f"shift^2 over the order-3 index = {twice}")
    print(f"shift^3 = {cc3.compose(twice, shift)}")

    value = dft_substitute(5, 1, [1, 1, 1, 1, 1])
    print(f"all-ones character sum at p=5: {value}")


if __name__ == "__main__":
    main()
