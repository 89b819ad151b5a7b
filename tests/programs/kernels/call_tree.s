# call_tree: ten rounds of x = 2 * x + 1 from x = 1, one call per
# operation, into a0 (expected 2^11 - 1 = 2047).
#
# Short leaf functions called back to back exercise the return-address
# stack.
double:
    add  a0, a0, a0
    ret
inc:
    addi a0, a0, 1
    ret

_start:
    li   a0, 1
    li   s1, 10
loop:
    call double
    call inc
    addi s1, s1, -1
    bnez s1, loop
    ebreak
