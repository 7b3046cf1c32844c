#include <stdint.h>
#include <stdlib.h>
#include <math.h>

/* NaN-propagating min/max matching np.minimum / np.maximum. */
static inline float rp_fmin32(float a, float b) {
    return (a != a) ? a : ((b != b) ? b : ((a < b) ? a : b));
}
static inline float rp_fmax32(float a, float b) {
    return (a != a) ? a : ((b != b) ? b : ((a > b) ? a : b));
}
static inline double rp_fmin64(double a, double b) {
    return (a != a) ? a : ((b != b) ? b : ((a < b) ? a : b));
}
static inline double rp_fmax64(double a, double b) {
    return (a != a) ? a : ((b != b) ? b : ((a > b) ? a : b));
}

static int64_t rp_k0(uint8_t * restrict b0, int64_t b0_d0, int64_t b0_d1, uint8_t * restrict b1, int64_t b1_d0, int64_t b1_d1, int64_t off0, int64_t off1, int64_t ext0, int64_t ext1, int64_t org0, int64_t org1) {
    const int64_t b0_s1 = 1;
    const int64_t b0_s0 = b0_s1 * b0_d1;
    const int64_t b1_s1 = 1;
    const int64_t b1_s0 = b1_s1 * b1_d1;
    if (!(ext0 > 0 && ext1 > 0)) { return 0; }
    for (int64_t i0 = 0; i0 < ext0; ++i0) {
        int64_t iv = 0;
        for (; iv + 8 <= ext1; iv += 8) {
            #pragma GCC ivdep
            for (int64_t lane = 0; lane < 8; ++lane) {
                int64_t t1 = iv + lane;
                int64_t t2 = org0 + i0;
                int64_t t3 = org1 + t1;
                int64_t t4 = (int64_t)((uint64_t)t3 + (uint64_t)INT64_C(-1));
                int64_t t5 = t4;
                int64_t t6 = t5 + ((t5 >> 63) & b1_d1);
                int64_t t7 = t2;
                int64_t t8 = t6 * b1_s1 + t7 * b1_s0;
                uint8_t t9 = b1[t8];
                int64_t t10 = (int64_t)t9;
                int64_t t11 = (int64_t)(uint32_t)(t10);
                int64_t t12 = (int64_t)((uint64_t)t3 + (uint64_t)INT64_C(1));
                int64_t t13 = t12;
                int64_t t14 = t2;
                int64_t t15 = t13 * b1_s1 + t14 * b1_s0;
                uint8_t t16 = b1[t15];
                int64_t t17 = (int64_t)t16;
                int64_t t18 = (int64_t)(uint32_t)(t17);
                int64_t t19 = (int64_t)((uint64_t)t11 + (uint64_t)t18);
                int64_t t20 = t3;
                int64_t t21 = t2;
                int64_t t22 = t20 * b1_s1 + t21 * b1_s0;
                uint8_t t23 = b1[t22];
                int64_t t24 = (int64_t)t23;
                int64_t t25 = (int64_t)(uint32_t)(t24);
                int64_t t26 = (int64_t)((uint64_t)t19 + (uint64_t)t25);
                int64_t t27 = (t26) >> ((INT64_C(1)) & 63);
                int64_t t28 = (int64_t)(uint8_t)(t27);
                int64_t t29 = (int64_t)(uint8_t)(t28);
                int64_t t30 = (off0 + i0) * b0_s0 + (off1 + t1) * b0_s1;
                b0[t30] = (uint8_t)(t29);
            }
        }
        for (int64_t tail = iv; tail < ext1; ++tail) {
            int64_t t31 = org0 + i0;
            int64_t t32 = org1 + tail;
            int64_t t33 = (int64_t)((uint64_t)t32 + (uint64_t)INT64_C(-1));
            int64_t t34 = t33;
            int64_t t35 = t34 + ((t34 >> 63) & b1_d1);
            int64_t t36 = t31;
            int64_t t37 = t35 * b1_s1 + t36 * b1_s0;
            uint8_t t38 = b1[t37];
            int64_t t39 = (int64_t)t38;
            int64_t t40 = (int64_t)(uint32_t)(t39);
            int64_t t41 = (int64_t)((uint64_t)t32 + (uint64_t)INT64_C(1));
            int64_t t42 = t41;
            int64_t t43 = t31;
            int64_t t44 = t42 * b1_s1 + t43 * b1_s0;
            uint8_t t45 = b1[t44];
            int64_t t46 = (int64_t)t45;
            int64_t t47 = (int64_t)(uint32_t)(t46);
            int64_t t48 = (int64_t)((uint64_t)t40 + (uint64_t)t47);
            int64_t t49 = t32;
            int64_t t50 = t31;
            int64_t t51 = t49 * b1_s1 + t50 * b1_s0;
            uint8_t t52 = b1[t51];
            int64_t t53 = (int64_t)t52;
            int64_t t54 = (int64_t)(uint32_t)(t53);
            int64_t t55 = (int64_t)((uint64_t)t48 + (uint64_t)t54);
            int64_t t56 = (t55) >> ((INT64_C(1)) & 63);
            int64_t t57 = (int64_t)(uint8_t)(t56);
            int64_t t58 = (int64_t)(uint8_t)(t57);
            int64_t t59 = (off0 + i0) * b0_s0 + (off1 + tail) * b0_s1;
            b0[t59] = (uint8_t)(t58);
        }
    }
    return 0;
}

static int64_t rp_k1(uint8_t * restrict b0, int64_t b0_d0, int64_t b0_d1, uint8_t * restrict b1, int64_t b1_d0, int64_t b1_d1, int64_t off0, int64_t off1, int64_t ext0, int64_t ext1, int64_t org0, int64_t org1) {
    const int64_t b0_s1 = 1;
    const int64_t b0_s0 = b0_s1 * b0_d1;
    const int64_t b1_s1 = 1;
    const int64_t b1_s0 = b1_s1 * b1_d1;
    if (!(ext0 > 0 && ext1 > 0)) { return 0; }
    for (int64_t i0 = 0; i0 < ext0; ++i0) {
        int64_t iv = 0;
        for (; iv + 8 <= ext1; iv += 8) {
            #pragma GCC ivdep
            for (int64_t lane = 0; lane < 8; ++lane) {
                int64_t t1 = iv + lane;
                int64_t t2 = org0 + i0;
                int64_t t3 = org1 + t1;
                int64_t t4 = (int64_t)((uint64_t)t3 + (uint64_t)INT64_C(-1));
                int64_t t5 = INT64_C(0);
                int64_t t6 = t4;
                int64_t t7 = (t5 > t6) ? t5 : t6;
                int64_t t8 = INT64_C(127);
                int64_t t9 = t7;
                int64_t t10 = (t8 < t9) ? t8 : t9;
                int64_t t11 = t10;
                int64_t t12 = INT64_C(0);
                int64_t t13 = t2;
                int64_t t14 = (t12 > t13) ? t12 : t13;
                int64_t t15 = INT64_C(95);
                int64_t t16 = t14;
                int64_t t17 = (t15 < t16) ? t15 : t16;
                int64_t t18 = t17;
                int64_t t19 = t11 * b1_s1 + t18 * b1_s0;
                uint8_t t20 = b1[t19];
                int64_t t21 = (int64_t)t20;
                int64_t t22 = (int64_t)(uint32_t)(t21);
                int64_t t23 = (int64_t)((uint64_t)t3 + (uint64_t)INT64_C(1));
                int64_t t24 = INT64_C(0);
                int64_t t25 = t23;
                int64_t t26 = (t24 > t25) ? t24 : t25;
                int64_t t27 = INT64_C(127);
                int64_t t28 = t26;
                int64_t t29 = (t27 < t28) ? t27 : t28;
                int64_t t30 = t29;
                int64_t t31 = INT64_C(0);
                int64_t t32 = t2;
                int64_t t33 = (t31 > t32) ? t31 : t32;
                int64_t t34 = INT64_C(95);
                int64_t t35 = t33;
                int64_t t36 = (t34 < t35) ? t34 : t35;
                int64_t t37 = t36;
                int64_t t38 = t30 * b1_s1 + t37 * b1_s0;
                uint8_t t39 = b1[t38];
                int64_t t40 = (int64_t)t39;
                int64_t t41 = (int64_t)(uint32_t)(t40);
                int64_t t42 = (int64_t)((uint64_t)t22 + (uint64_t)t41);
                int64_t t43 = INT64_C(0);
                int64_t t44 = t3;
                int64_t t45 = (t43 > t44) ? t43 : t44;
                int64_t t46 = INT64_C(127);
                int64_t t47 = t45;
                int64_t t48 = (t46 < t47) ? t46 : t47;
                int64_t t49 = t48;
                int64_t t50 = INT64_C(0);
                int64_t t51 = t2;
                int64_t t52 = (t50 > t51) ? t50 : t51;
                int64_t t53 = INT64_C(95);
                int64_t t54 = t52;
                int64_t t55 = (t53 < t54) ? t53 : t54;
                int64_t t56 = t55;
                int64_t t57 = t49 * b1_s1 + t56 * b1_s0;
                uint8_t t58 = b1[t57];
                int64_t t59 = (int64_t)t58;
                int64_t t60 = (int64_t)(uint32_t)(t59);
                int64_t t61 = (int64_t)((uint64_t)t42 + (uint64_t)t60);
                int64_t t62 = (t61) >> ((INT64_C(1)) & 63);
                int64_t t63 = (int64_t)(uint8_t)(t62);
                int64_t t64 = (int64_t)(uint8_t)(t63);
                int64_t t65 = (off0 + i0) * b0_s0 + (off1 + t1) * b0_s1;
                b0[t65] = (uint8_t)(t64);
            }
        }
        for (int64_t tail = iv; tail < ext1; ++tail) {
            int64_t t66 = org0 + i0;
            int64_t t67 = org1 + tail;
            int64_t t68 = (int64_t)((uint64_t)t67 + (uint64_t)INT64_C(-1));
            int64_t t69 = INT64_C(0);
            int64_t t70 = t68;
            int64_t t71 = (t69 > t70) ? t69 : t70;
            int64_t t72 = INT64_C(127);
            int64_t t73 = t71;
            int64_t t74 = (t72 < t73) ? t72 : t73;
            int64_t t75 = t74;
            int64_t t76 = INT64_C(0);
            int64_t t77 = t66;
            int64_t t78 = (t76 > t77) ? t76 : t77;
            int64_t t79 = INT64_C(95);
            int64_t t80 = t78;
            int64_t t81 = (t79 < t80) ? t79 : t80;
            int64_t t82 = t81;
            int64_t t83 = t75 * b1_s1 + t82 * b1_s0;
            uint8_t t84 = b1[t83];
            int64_t t85 = (int64_t)t84;
            int64_t t86 = (int64_t)(uint32_t)(t85);
            int64_t t87 = (int64_t)((uint64_t)t67 + (uint64_t)INT64_C(1));
            int64_t t88 = INT64_C(0);
            int64_t t89 = t87;
            int64_t t90 = (t88 > t89) ? t88 : t89;
            int64_t t91 = INT64_C(127);
            int64_t t92 = t90;
            int64_t t93 = (t91 < t92) ? t91 : t92;
            int64_t t94 = t93;
            int64_t t95 = INT64_C(0);
            int64_t t96 = t66;
            int64_t t97 = (t95 > t96) ? t95 : t96;
            int64_t t98 = INT64_C(95);
            int64_t t99 = t97;
            int64_t t100 = (t98 < t99) ? t98 : t99;
            int64_t t101 = t100;
            int64_t t102 = t94 * b1_s1 + t101 * b1_s0;
            uint8_t t103 = b1[t102];
            int64_t t104 = (int64_t)t103;
            int64_t t105 = (int64_t)(uint32_t)(t104);
            int64_t t106 = (int64_t)((uint64_t)t86 + (uint64_t)t105);
            int64_t t107 = INT64_C(0);
            int64_t t108 = t67;
            int64_t t109 = (t107 > t108) ? t107 : t108;
            int64_t t110 = INT64_C(127);
            int64_t t111 = t109;
            int64_t t112 = (t110 < t111) ? t110 : t111;
            int64_t t113 = t112;
            int64_t t114 = INT64_C(0);
            int64_t t115 = t66;
            int64_t t116 = (t114 > t115) ? t114 : t115;
            int64_t t117 = INT64_C(95);
            int64_t t118 = t116;
            int64_t t119 = (t117 < t118) ? t117 : t118;
            int64_t t120 = t119;
            int64_t t121 = t113 * b1_s1 + t120 * b1_s0;
            uint8_t t122 = b1[t121];
            int64_t t123 = (int64_t)t122;
            int64_t t124 = (int64_t)(uint32_t)(t123);
            int64_t t125 = (int64_t)((uint64_t)t106 + (uint64_t)t124);
            int64_t t126 = (t125) >> ((INT64_C(1)) & 63);
            int64_t t127 = (int64_t)(uint8_t)(t126);
            int64_t t128 = (int64_t)(uint8_t)(t127);
            int64_t t129 = (off0 + i0) * b0_s0 + (off1 + tail) * b0_s1;
            b0[t129] = (uint8_t)(t128);
        }
    }
    return 0;
}

static int64_t rp_k2(uint8_t * restrict b0, int64_t b0_d0, int64_t b0_d1, uint8_t * restrict b1, int64_t b1_d0, int64_t b1_d1, int64_t off0, int64_t off1, int64_t ext0, int64_t ext1, int64_t org0, int64_t org1) {
    const int64_t b0_s1 = 1;
    const int64_t b0_s0 = b0_s1 * b0_d1;
    const int64_t b1_s1 = 1;
    const int64_t b1_s0 = b1_s1 * b1_d1;
    if (!(ext0 > 0 && ext1 > 0)) { return 0; }
    for (int64_t i0 = 0; i0 < ext0; ++i0) {
        int64_t iv = 0;
        for (; iv + 8 <= ext1; iv += 8) {
            #pragma GCC ivdep
            for (int64_t lane = 0; lane < 8; ++lane) {
                int64_t t1 = iv + lane;
                int64_t t2 = org0 + i0;
                int64_t t3 = org1 + t1;
                int64_t t4 = (int64_t)((uint64_t)t3 + (uint64_t)INT64_C(-1));
                int64_t t5 = t4;
                int64_t t6 = t2;
                int64_t t7 = t5 * b1_s1 + t6 * b1_s0;
                uint8_t t8 = b1[t7];
                int64_t t9 = (int64_t)t8;
                int64_t t10 = (int64_t)(uint32_t)(t9);
                int64_t t11 = (int64_t)((uint64_t)t3 + (uint64_t)INT64_C(1));
                int64_t t12 = t11;
                int64_t t13 = t2;
                int64_t t14 = t12 * b1_s1 + t13 * b1_s0;
                uint8_t t15 = b1[t14];
                int64_t t16 = (int64_t)t15;
                int64_t t17 = (int64_t)(uint32_t)(t16);
                int64_t t18 = (int64_t)((uint64_t)t10 + (uint64_t)t17);
                int64_t t19 = t3;
                int64_t t20 = t2;
                int64_t t21 = t19 * b1_s1 + t20 * b1_s0;
                uint8_t t22 = b1[t21];
                int64_t t23 = (int64_t)t22;
                int64_t t24 = (int64_t)(uint32_t)(t23);
                int64_t t25 = (int64_t)((uint64_t)t18 + (uint64_t)t24);
                int64_t t26 = (t25) >> ((INT64_C(1)) & 63);
                int64_t t27 = (int64_t)(uint8_t)(t26);
                int64_t t28 = (int64_t)(uint8_t)(t27);
                int64_t t29 = (off0 + i0) * b0_s0 + (off1 + t1) * b0_s1;
                b0[t29] = (uint8_t)(t28);
            }
        }
        for (int64_t tail = iv; tail < ext1; ++tail) {
            int64_t t30 = org0 + i0;
            int64_t t31 = org1 + tail;
            int64_t t32 = (int64_t)((uint64_t)t31 + (uint64_t)INT64_C(-1));
            int64_t t33 = t32;
            int64_t t34 = t30;
            int64_t t35 = t33 * b1_s1 + t34 * b1_s0;
            uint8_t t36 = b1[t35];
            int64_t t37 = (int64_t)t36;
            int64_t t38 = (int64_t)(uint32_t)(t37);
            int64_t t39 = (int64_t)((uint64_t)t31 + (uint64_t)INT64_C(1));
            int64_t t40 = t39;
            int64_t t41 = t30;
            int64_t t42 = t40 * b1_s1 + t41 * b1_s0;
            uint8_t t43 = b1[t42];
            int64_t t44 = (int64_t)t43;
            int64_t t45 = (int64_t)(uint32_t)(t44);
            int64_t t46 = (int64_t)((uint64_t)t38 + (uint64_t)t45);
            int64_t t47 = t31;
            int64_t t48 = t30;
            int64_t t49 = t47 * b1_s1 + t48 * b1_s0;
            uint8_t t50 = b1[t49];
            int64_t t51 = (int64_t)t50;
            int64_t t52 = (int64_t)(uint32_t)(t51);
            int64_t t53 = (int64_t)((uint64_t)t46 + (uint64_t)t52);
            int64_t t54 = (t53) >> ((INT64_C(1)) & 63);
            int64_t t55 = (int64_t)(uint8_t)(t54);
            int64_t t56 = (int64_t)(uint8_t)(t55);
            int64_t t57 = (off0 + i0) * b0_s0 + (off1 + tail) * b0_s1;
            b0[t57] = (uint8_t)(t56);
        }
    }
    return 0;
}

static int64_t rp_k3(uint8_t * restrict b0, int64_t b0_d0, int64_t b0_d1, uint8_t * restrict b1, int64_t b1_d0, int64_t b1_d1, int64_t off0, int64_t off1, int64_t ext0, int64_t ext1, int64_t org0, int64_t org1) {
    const int64_t b0_s1 = 1;
    const int64_t b0_s0 = b0_s1 * b0_d1;
    const int64_t b1_s1 = 1;
    const int64_t b1_s0 = b1_s1 * b1_d1;
    if (!(ext0 > 0 && ext1 > 0)) { return 0; }
    for (int64_t i0 = 0; i0 < ext0; ++i0) {
        int64_t iv = 0;
        for (; iv + 8 <= ext1; iv += 8) {
            #pragma GCC ivdep
            for (int64_t lane = 0; lane < 8; ++lane) {
                int64_t t1 = iv + lane;
                int64_t t2 = org0 + i0;
                int64_t t3 = org1 + t1;
                int64_t t4 = t3;
                int64_t t5 = (int64_t)((uint64_t)t2 + (uint64_t)INT64_C(1));
                int64_t t6 = t5;
                int64_t t7 = t4 * b1_s1 + t6 * b1_s0;
                uint8_t t8 = b1[t7];
                int64_t t9 = (int64_t)t8;
                int64_t t10 = (int64_t)(uint32_t)(t9);
                int64_t t11 = t3;
                int64_t t12 = (int64_t)((uint64_t)t2 + (uint64_t)INT64_C(2));
                int64_t t13 = t12;
                int64_t t14 = t11 * b1_s1 + t13 * b1_s0;
                uint8_t t15 = b1[t14];
                int64_t t16 = (int64_t)t15;
                int64_t t17 = (int64_t)(uint32_t)(t16);
                int64_t t18 = (int64_t)((uint64_t)t10 + (uint64_t)t17);
                int64_t t19 = t3;
                int64_t t20 = t2;
                int64_t t21 = t19 * b1_s1 + t20 * b1_s0;
                uint8_t t22 = b1[t21];
                int64_t t23 = (int64_t)t22;
                int64_t t24 = (int64_t)(uint32_t)(t23);
                int64_t t25 = (int64_t)((uint64_t)t18 + (uint64_t)t24);
                int64_t t26 = (t25) >> ((INT64_C(1)) & 63);
                int64_t t27 = (int64_t)(uint8_t)(t26);
                int64_t t28 = (int64_t)(uint8_t)(t27);
                int64_t t29 = (off0 + i0) * b0_s0 + (off1 + t1) * b0_s1;
                b0[t29] = (uint8_t)(t28);
            }
        }
        for (int64_t tail = iv; tail < ext1; ++tail) {
            int64_t t30 = org0 + i0;
            int64_t t31 = org1 + tail;
            int64_t t32 = t31;
            int64_t t33 = (int64_t)((uint64_t)t30 + (uint64_t)INT64_C(1));
            int64_t t34 = t33;
            int64_t t35 = t32 * b1_s1 + t34 * b1_s0;
            uint8_t t36 = b1[t35];
            int64_t t37 = (int64_t)t36;
            int64_t t38 = (int64_t)(uint32_t)(t37);
            int64_t t39 = t31;
            int64_t t40 = (int64_t)((uint64_t)t30 + (uint64_t)INT64_C(2));
            int64_t t41 = t40;
            int64_t t42 = t39 * b1_s1 + t41 * b1_s0;
            uint8_t t43 = b1[t42];
            int64_t t44 = (int64_t)t43;
            int64_t t45 = (int64_t)(uint32_t)(t44);
            int64_t t46 = (int64_t)((uint64_t)t38 + (uint64_t)t45);
            int64_t t47 = t31;
            int64_t t48 = t30;
            int64_t t49 = t47 * b1_s1 + t48 * b1_s0;
            uint8_t t50 = b1[t49];
            int64_t t51 = (int64_t)t50;
            int64_t t52 = (int64_t)(uint32_t)(t51);
            int64_t t53 = (int64_t)((uint64_t)t46 + (uint64_t)t52);
            int64_t t54 = (t53) >> ((INT64_C(1)) & 63);
            int64_t t55 = (int64_t)(uint8_t)(t54);
            int64_t t56 = (int64_t)(uint8_t)(t55);
            int64_t t57 = (off0 + i0) * b0_s0 + (off1 + tail) * b0_s1;
            b0[t57] = (uint8_t)(t56);
        }
    }
    return 0;
}

int64_t rp_seg0(void **bufs, const int64_t *shapes, const int64_t *env, const int64_t *iparams, const double *fparams) {
    (void)bufs; (void)shapes; (void)env; (void)iparams; (void)fparams;
    uint8_t * restrict b0 = (uint8_t *)bufs[0];
    const int64_t b0_d0 = shapes[0];
    const int64_t b0_d1 = shapes[1];
    const int64_t b0_s1 = 1;
    const int64_t b0_s0 = b0_s1 * b0_d1;
    uint8_t * restrict b1 = (uint8_t *)bufs[1];
    const int64_t b1_d0 = shapes[2];
    const int64_t b1_d1 = shapes[3];
    const int64_t b1_s1 = 1;
    const int64_t b1_s0 = b1_s1 * b1_d1;
    const int64_t ev0_by_tile_y = env[0];
    {
        int64_t t1 = INT64_C(0);
        int64_t t2 = INT64_C(2);
        int64_t t3 = t1 + t2;
        for (int64_t v_by_tile_x = t1; v_by_tile_x < t3; ++v_by_tile_x) {
            {
                int64_t t4 = (int64_t)((uint64_t)ev0_by_tile_y * (uint64_t)INT64_C(32));
                int64_t v_s1_oy = t4;
                {
                    int64_t t5 = (int64_t)((uint64_t)v_by_tile_x * (uint64_t)INT64_C(64));
                    int64_t v_s1_ox = t5;
                    {
                        int64_t t6 = (int64_t)((uint64_t)INT64_C(96) - (uint64_t)v_s1_oy);
                        int64_t t7 = INT64_C(32);
                        int64_t t8 = t6;
                        int64_t t9 = (t7 < t8) ? t7 : t8;
                        int64_t v_s1_ey = t9;
                        {
                            int64_t t10 = (int64_t)((uint64_t)INT64_C(128) - (uint64_t)v_s1_ox);
                            int64_t t11 = INT64_C(64);
                            int64_t t12 = t10;
                            int64_t t13 = (t11 < t12) ? t11 : t12;
                            int64_t v_s1_ex = t13;
                            {
                                int64_t t14 = (int64_t)((uint64_t)v_s1_oy + (uint64_t)INT64_C(-1));
                                int64_t v_s0_ro0 = t14;
                                {
                                    int64_t t15 = (int64_t)((uint64_t)v_s1_ey + (uint64_t)INT64_C(2));
                                    int64_t v_s0_re0 = t15;
                                    {
                                        int64_t t16 = v_s0_ro0;
                                        int64_t t17 = INT64_C(0);
                                        int64_t t18 = (t16 > t17) ? t16 : t17;
                                        int64_t t19 = t18;
                                        int64_t t20 = INT64_C(95);
                                        int64_t t21 = (t19 < t20) ? t19 : t20;
                                        int64_t v_s0_co0 = t21;
                                        {
                                            int64_t t22 = (int64_t)((uint64_t)v_s0_ro0 + (uint64_t)v_s0_re0);
                                            int64_t t23 = (int64_t)((uint64_t)t22 - (uint64_t)INT64_C(1));
                                            int64_t t24 = t23;
                                            int64_t t25 = INT64_C(0);
                                            int64_t t26 = (t24 > t25) ? t24 : t25;
                                            int64_t t27 = t26;
                                            int64_t t28 = INT64_C(95);
                                            int64_t t29 = (t27 < t28) ? t27 : t28;
                                            int64_t v_s0_chi0 = t29;
                                            {
                                                int64_t t30 = (int64_t)((uint64_t)v_s0_chi0 - (uint64_t)v_s0_co0);
                                                int64_t t31 = (int64_t)((uint64_t)t30 + (uint64_t)INT64_C(1));
                                                int64_t v_s0_ce0 = t31;
                                                {
                                                    int64_t t32 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                    int64_t v_s0_coff0 = t32;
                                                    {
                                                        int64_t t33 = v_s1_ox;
                                                        int64_t t34 = INT64_C(0);
                                                        int64_t t35 = (t33 > t34) ? t33 : t34;
                                                        int64_t t36 = t35;
                                                        int64_t t37 = INT64_C(127);
                                                        int64_t t38 = (t36 < t37) ? t36 : t37;
                                                        int64_t v_s0_co1 = t38;
                                                        {
                                                            int64_t t39 = (int64_t)((uint64_t)v_s1_ox + (uint64_t)v_s1_ex);
                                                            int64_t t40 = (int64_t)((uint64_t)t39 - (uint64_t)INT64_C(1));
                                                            int64_t t41 = t40;
                                                            int64_t t42 = INT64_C(0);
                                                            int64_t t43 = (t41 > t42) ? t41 : t42;
                                                            int64_t t44 = t43;
                                                            int64_t t45 = INT64_C(127);
                                                            int64_t t46 = (t44 < t45) ? t44 : t45;
                                                            int64_t v_s0_chi1 = t46;
                                                            {
                                                                int64_t t47 = (int64_t)((uint64_t)v_s0_chi1 - (uint64_t)v_s0_co1);
                                                                int64_t t48 = (int64_t)((uint64_t)t47 + (uint64_t)INT64_C(1));
                                                                int64_t v_s0_ce1 = t48;
                                                                {
                                                                    int64_t t49 = (int64_t)((uint64_t)v_s0_co1 - (uint64_t)v_s1_ox);
                                                                    int64_t v_s0_coff1 = t49;
                                                                    {
                                                                        int64_t t50 = (int64_t)((uint64_t)v_s0_co0 + (uint64_t)v_s0_ce0);
                                                                        int64_t t51 = (int64_t)((uint64_t)t50 - (uint64_t)INT64_C(1));
                                                                        int64_t v_s0_p_hi0 = t51;
                                                                        {
                                                                            int64_t t52 = (int64_t)((uint64_t)v_s0_co1 + (uint64_t)v_s0_ce1);
                                                                            int64_t t53 = (int64_t)((uint64_t)t52 - (uint64_t)INT64_C(1));
                                                                            int64_t v_s0_p_hi1 = t53;
                                                                            {
                                                                                int64_t t54 = v_s0_co1;
                                                                                int64_t t55 = INT64_C(1);
                                                                                int64_t t56 = (t54 > t55) ? t54 : t55;
                                                                                int64_t v_s0_p_ilo1 = t56;
                                                                                {
                                                                                    int64_t t57 = v_s0_p_hi1;
                                                                                    int64_t t58 = INT64_C(126);
                                                                                    int64_t t59 = (t57 < t58) ? t57 : t58;
                                                                                    int64_t v_s0_p_ihi1 = t59;
                                                                                    { /* allocate bx.scratch#0 */
                                                                                        int64_t t60 = v_s0_re0;
                                                                                        int64_t t61 = v_s1_ex;
                                                                                        int64_t t62 = t60 * t61;
                                                                                        uint8_t * restrict a_bx_scratch_0 = (uint8_t *)malloc((size_t)t62 * sizeof(uint8_t));
                                                                                        if (!a_bx_scratch_0) { return 3; }
                                                                                        int64_t t63 = 1;
                                                                                        int64_t t64 = t63 * t61;
                                                                                        /* produce bx */
                                                                                        int64_t t65 = (int64_t)((uint64_t)v_s0_co1 + (uint64_t)INT64_C(-1));
                                                                                        int64_t t66 = (int64_t)(t65 >= INT64_C(0));
                                                                                        int64_t t67 = (int64_t)((uint64_t)v_s0_co1 + (uint64_t)v_s0_ce1);
                                                                                        int64_t t68 = (int64_t)((uint64_t)t67 + (uint64_t)INT64_C(1));
                                                                                        int64_t t69 = (int64_t)(t68 <= INT64_C(128));
                                                                                        int64_t t70 = (t66) & (t69);
                                                                                        int64_t t71 = t70;
                                                                                        if (t71 != 0) {
                                                                                            { /* store interior-whole */
                                                                                                int64_t t72 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                int64_t t73 = t72;
                                                                                                int64_t t74 = (int64_t)((uint64_t)v_s0_co1 - (uint64_t)v_s1_ox);
                                                                                                int64_t t75 = t74;
                                                                                                int64_t t76 = v_s0_ce0;
                                                                                                int64_t t77 = v_s0_ce1;
                                                                                                int64_t t78 = v_s0_co0;
                                                                                                int64_t t79 = v_s0_co1;
                                                                                                int64_t t80 = rp_k0(a_bx_scratch_0, t60, t61, b0, b0_d0, b0_d1, t73, t75, t76, t77, t78, t79);
                                                                                                if (t80 != 0) { return t80; }
                                                                                            }
                                                                                        } else {
                                                                                            { /* store border-lo1 */
                                                                                                int64_t t81 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                int64_t t82 = t81;
                                                                                                int64_t t83 = (int64_t)((uint64_t)v_s0_co1 - (uint64_t)v_s1_ox);
                                                                                                int64_t t84 = t83;
                                                                                                int64_t t85 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                int64_t t86 = (int64_t)((uint64_t)t85 + (uint64_t)INT64_C(1));
                                                                                                int64_t t87 = t86;
                                                                                                int64_t t88 = (int64_t)((uint64_t)v_s0_p_ilo1 - (uint64_t)v_s0_co1);
                                                                                                int64_t t89 = t88;
                                                                                                int64_t t90 = v_s0_co0;
                                                                                                int64_t t91 = v_s0_co1;
                                                                                                int64_t t92 = rp_k1(a_bx_scratch_0, t60, t61, b0, b0_d0, b0_d1, t82, t84, t87, t89, t90, t91);
                                                                                                if (t92 != 0) { return t92; }
                                                                                            }
                                                                                            { /* store border-hi1 */
                                                                                                int64_t t93 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                int64_t t94 = t93;
                                                                                                int64_t t95 = (int64_t)((uint64_t)v_s0_p_ihi1 + (uint64_t)INT64_C(1));
                                                                                                int64_t t96 = (int64_t)((uint64_t)t95 - (uint64_t)v_s1_ox);
                                                                                                int64_t t97 = t96;
                                                                                                int64_t t98 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                int64_t t99 = (int64_t)((uint64_t)t98 + (uint64_t)INT64_C(1));
                                                                                                int64_t t100 = t99;
                                                                                                int64_t t101 = (int64_t)((uint64_t)v_s0_p_hi1 - (uint64_t)v_s0_p_ihi1);
                                                                                                int64_t t102 = t101;
                                                                                                int64_t t103 = v_s0_co0;
                                                                                                int64_t t104 = (int64_t)((uint64_t)v_s0_p_ihi1 + (uint64_t)INT64_C(1));
                                                                                                int64_t t105 = t104;
                                                                                                int64_t t106 = rp_k1(a_bx_scratch_0, t60, t61, b0, b0_d0, b0_d1, t94, t97, t100, t102, t103, t105);
                                                                                                if (t106 != 0) { return t106; }
                                                                                            }
                                                                                            { /* store interior */
                                                                                                int64_t t107 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                int64_t t108 = t107;
                                                                                                int64_t t109 = (int64_t)((uint64_t)v_s0_p_ilo1 - (uint64_t)v_s1_ox);
                                                                                                int64_t t110 = t109;
                                                                                                int64_t t111 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                int64_t t112 = (int64_t)((uint64_t)t111 + (uint64_t)INT64_C(1));
                                                                                                int64_t t113 = t112;
                                                                                                int64_t t114 = (int64_t)((uint64_t)v_s0_p_ihi1 - (uint64_t)v_s0_p_ilo1);
                                                                                                int64_t t115 = (int64_t)((uint64_t)t114 + (uint64_t)INT64_C(1));
                                                                                                int64_t t116 = t115;
                                                                                                int64_t t117 = v_s0_co0;
                                                                                                int64_t t118 = v_s0_p_ilo1;
                                                                                                int64_t t119 = rp_k2(a_bx_scratch_0, t60, t61, b0, b0_d0, b0_d1, t108, t110, t113, t116, t117, t118);
                                                                                                if (t119 != 0) { return t119; }
                                                                                            }
                                                                                        }
                                                                                        { /* pad_edge bx.scratch#0 */
                                                                                            int64_t t120 = v_s0_coff0;
                                                                                            int64_t t121 = v_s0_coff1;
                                                                                            int64_t t122 = v_s0_ce0;
                                                                                            int64_t t123 = v_s0_ce1;
                                                                                            int64_t t124 = t120 + t122;
                                                                                            if (t120 > 0) {
                                                                                                {
                                                                                                    for (int64_t p0 = 0; p0 < t120; ++p0) {
                                                                                                        for (int64_t p1 = 0; p1 < t61; ++p1) {
                                                                                                            int64_t t125 = p0 * t64 + p1 * t63;
                                                                                                            int64_t t126 = t120 * t64 + p1 * t63;
                                                                                                            a_bx_scratch_0[t125] = a_bx_scratch_0[t126];
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                            if (t60 > t124) {
                                                                                                {
                                                                                                    for (int64_t p0_127 = t124; p0_127 < t60; ++p0_127) {
                                                                                                        for (int64_t p1_128 = 0; p1_128 < t61; ++p1_128) {
                                                                                                            int64_t t129 = p0_127 * t64 + p1_128 * t63;
                                                                                                            int64_t t130 = (t124 - 1) * t64 + p1_128 * t63;
                                                                                                            a_bx_scratch_0[t129] = a_bx_scratch_0[t130];
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                            int64_t t131 = t121 + t123;
                                                                                            if (t121 > 0) {
                                                                                                {
                                                                                                    for (int64_t p0_132 = 0; p0_132 < t60; ++p0_132) {
                                                                                                        for (int64_t p1_133 = 0; p1_133 < t121; ++p1_133) {
                                                                                                            int64_t t134 = p0_132 * t64 + p1_133 * t63;
                                                                                                            int64_t t135 = p0_132 * t64 + t121 * t63;
                                                                                                            a_bx_scratch_0[t134] = a_bx_scratch_0[t135];
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                            if (t61 > t131) {
                                                                                                {
                                                                                                    for (int64_t p0_136 = 0; p0_136 < t60; ++p0_136) {
                                                                                                        for (int64_t p1_137 = t131; p1_137 < t61; ++p1_137) {
                                                                                                            int64_t t138 = p0_136 * t64 + p1_137 * t63;
                                                                                                            int64_t t139 = p0_136 * t64 + (t131 - 1) * t63;
                                                                                                            a_bx_scratch_0[t138] = a_bx_scratch_0[t139];
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                        }
                                                                                        /* consume bx */
                                                                                        { /* store consume */
                                                                                            int64_t t140 = v_s1_oy;
                                                                                            int64_t t141 = v_s1_ox;
                                                                                            int64_t t142 = v_s1_ey;
                                                                                            int64_t t143 = v_s1_ex;
                                                                                            int64_t t144 = INT64_C(0);
                                                                                            int64_t t145 = INT64_C(0);
                                                                                            int64_t t146 = rp_k3(b1, b1_d0, b1_d1, a_bx_scratch_0, t60, t61, t140, t141, t142, t143, t144, t145);
                                                                                            if (t146 != 0) { return t146; }
                                                                                        }
                                                                                        free(a_bx_scratch_0);
                                                                                    }
                                                                                }
                                                                            }
                                                                        }
                                                                    }
                                                                }
                                                            }
                                                        }
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return 0;
}

int64_t rp_seg1(void **bufs, const int64_t *shapes, const int64_t *env, const int64_t *iparams, const double *fparams) {
    (void)bufs; (void)shapes; (void)env; (void)iparams; (void)fparams;
    uint8_t * restrict b0 = (uint8_t *)bufs[0];
    const int64_t b0_d0 = shapes[0];
    const int64_t b0_d1 = shapes[1];
    const int64_t b0_s1 = 1;
    const int64_t b0_s0 = b0_s1 * b0_d1;
    uint8_t * restrict b1 = (uint8_t *)bufs[1];
    const int64_t b1_d0 = shapes[2];
    const int64_t b1_d1 = shapes[3];
    const int64_t b1_s1 = 1;
    const int64_t b1_s0 = b1_s1 * b1_d1;
    {
        int64_t t1 = INT64_C(0);
        int64_t t2 = INT64_C(3);
        int64_t t3 = t1 + t2;
        int64_t sub_env[1];
        for (int64_t v_by_tile_y = t1; v_by_tile_y < t3; ++v_by_tile_y) {
            sub_env[0] = v_by_tile_y;
            int64_t t4 = rp_seg0(bufs, shapes, sub_env, iparams, fparams);
            if (t4 != 0) { return t4; }
        }
    }
    return 0;
}
