# string_hash: fill 16 words at 0x3000 with data[i] = i * i + 131, then
# hash them into a0: h = 1469; h ^= d; h += h << 5; h &= 0xffffff.
#
# Shifts, xors and a multiply in a tight loop-carried recurrence.
_start:
    li   t0, 16
    li   t1, 0x3000
    li   t2, 0
fill:
    mul  t3, t2, t2
    addi t3, t3, 131
    sw   t3, 0(t1)
    addi t1, t1, 4
    addi t2, t2, 1
    addi t0, t0, -1
    bnez t0, fill

    li   t0, 16
    li   t1, 0x3000
    li   a0, 1469
    li   t6, 0xffffff   # mask
hash:
    lw   t4, 0(t1)
    xor  a0, a0, t4
    slli t5, a0, 5
    add  a0, a0, t5
    and  a0, a0, t6
    addi t1, t1, 4
    addi t0, t0, -1
    bnez t0, hash
    ebreak
