# binsearch: binary-search a sorted 64-word table (table[i] = 3 * i at
# 0xc000) for 32 keys 0, 7, 14, ... (wrapped into 0..191), counting the
# keys found into a0.
#
# Hard-to-predict branches with short dependent address arithmetic.
_start:
    li   t0, 64
    li   t1, 0xc000
    li   t2, 0
fill:
    sw   t2, 0(t1)
    addi t2, t2, 3
    addi t1, t1, 4
    addi t0, t0, -1
    bnez t0, fill

    li   a0, 0          # hits
    li   s1, 0          # key
    li   s2, 32         # searches
next_key:
    li   t0, 0          # lo
    li   t1, 64         # hi
search:
    sub  t2, t1, t0
    slti t3, t2, 1
    bnez t3, done_search
    add  t4, t0, t1
    srli t4, t4, 1      # mid
    slli t5, t4, 2
    li   t6, 0xc000
    add  t6, t6, t5
    lw   t5, 0(t6)      # table[mid]
    sub  a1, t5, s1     # table[mid] == key?
    seqz a1, a1
    bnez a1, found
    slt  a1, t5, s1
    beqz a1, go_left
    addi t0, t4, 1
    j    search
go_left:
    mv   t1, t4
    j    search
found:
    addi a0, a0, 1
done_search:
    addi s1, s1, 7
    andi s1, s1, 0xbf   # wrap the key into 0..191
    addi s2, s2, -1
    bnez s2, next_key
    ebreak
