#include "gen/arith.hpp"

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace tpi::gen {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

namespace {

struct FullAdderOut {
    NodeId sum;
    NodeId carry;
};

FullAdderOut full_adder(Circuit& c, NodeId a, NodeId b, NodeId cin,
                        const std::string& tag) {
    const NodeId x = c.add_gate(GateType::Xor, {a, b}, tag + "_x");
    const NodeId sum = c.add_gate(GateType::Xor, {x, cin}, tag + "_s");
    const NodeId g = c.add_gate(GateType::And, {a, b}, tag + "_g");
    const NodeId p = c.add_gate(GateType::And, {x, cin}, tag + "_p");
    const NodeId carry = c.add_gate(GateType::Or, {g, p}, tag + "_c");
    return {sum, carry};
}

NodeId half_adder_sum(Circuit& c, NodeId a, NodeId b,
                      const std::string& tag, NodeId& carry) {
    carry = c.add_gate(GateType::And, {a, b}, tag + "_hc");
    return c.add_gate(GateType::Xor, {a, b}, tag + "_hs");
}

}  // namespace

Circuit ripple_carry_adder(std::size_t bits) {
    require(bits >= 1, "ripple_carry_adder: bits >= 1");
    Circuit c("add" + std::to_string(bits));
    std::vector<NodeId> a(bits);
    std::vector<NodeId> b(bits);
    for (std::size_t i = 0; i < bits; ++i)
        a[i] = c.add_input("a" + std::to_string(i));
    for (std::size_t i = 0; i < bits; ++i)
        b[i] = c.add_input("b" + std::to_string(i));
    NodeId carry = c.add_input("cin");
    for (std::size_t i = 0; i < bits; ++i) {
        const FullAdderOut fa =
            full_adder(c, a[i], b[i], carry, "fa" + std::to_string(i));
        c.mark_output(fa.sum);
        carry = fa.carry;
    }
    c.mark_output(carry);
    c.validate();
    return c;
}

Circuit array_multiplier(std::size_t bits) {
    require(bits >= 2, "array_multiplier: bits >= 2");
    Circuit c("mul" + std::to_string(bits));
    std::vector<NodeId> a(bits);
    std::vector<NodeId> b(bits);
    for (std::size_t i = 0; i < bits; ++i)
        a[i] = c.add_input("a" + std::to_string(i));
    for (std::size_t j = 0; j < bits; ++j)
        b[j] = c.add_input("b" + std::to_string(j));

    // pp[i][j] = a[j] AND b[i], weight i + j.
    const auto pp = [&](std::size_t i, std::size_t j) {
        return c.add_gate(GateType::And, {a[j], b[i]},
                          "pp" + std::to_string(i) + "_" +
                              std::to_string(j));
    };

    // Accumulate rows. Invariant at the top of row i: running[j] carries
    // weight (i-1)+j and top_carry (when valid) carries weight (i-1)+bits.
    std::vector<NodeId> running(bits);
    for (std::size_t j = 0; j < bits; ++j) running[j] = pp(0, j);
    NodeId top_carry = netlist::kNullNode;

    for (std::size_t i = 1; i < bits; ++i) {
        c.mark_output(running[0]);  // p_{i-1}: nothing of weight i-1 remains

        std::vector<NodeId> row(bits);
        for (std::size_t j = 0; j < bits; ++j) row[j] = pp(i, j);
        // Ripple-add row[j] (weight i+j) to the aligned survivors:
        // addend[j] = running[j+1] for j < bits-1, addend[bits-1] = the
        // previous row's top carry.
        std::vector<NodeId> next(bits);
        NodeId carry = netlist::kNullNode;
        for (std::size_t j = 0; j < bits; ++j) {
            const std::string tag =
                "r" + std::to_string(i) + "_" + std::to_string(j);
            const NodeId addend =
                (j + 1 < bits) ? running[j + 1] : top_carry;
            if (!carry.valid()) {
                if (addend.valid()) {
                    next[j] = half_adder_sum(c, row[j], addend, tag, carry);
                } else {
                    next[j] = row[j];
                }
            } else if (addend.valid()) {
                const FullAdderOut fa =
                    full_adder(c, row[j], addend, carry, tag);
                next[j] = fa.sum;
                carry = fa.carry;
            } else {
                NodeId new_carry;
                next[j] = half_adder_sum(c, row[j], carry, tag, new_carry);
                carry = new_carry;
            }
        }
        running = std::move(next);
        top_carry = carry;  // weight i+bits
    }
    // Remaining bits p_{bits-1}..p_{2*bits-1}.
    for (std::size_t j = 0; j < bits; ++j) c.mark_output(running[j]);
    c.mark_output(top_carry);
    c.validate();
    return c;
}

Circuit equality_comparator(std::size_t bits) {
    require(bits >= 2, "equality_comparator: bits >= 2");
    Circuit c("cmp" + std::to_string(bits));
    std::vector<NodeId> layer(bits);
    std::vector<NodeId> a(bits);
    std::vector<NodeId> b(bits);
    for (std::size_t i = 0; i < bits; ++i)
        a[i] = c.add_input("a" + std::to_string(i));
    for (std::size_t i = 0; i < bits; ++i)
        b[i] = c.add_input("b" + std::to_string(i));
    for (std::size_t i = 0; i < bits; ++i)
        layer[i] = c.add_gate(GateType::Xnor, {a[i], b[i]},
                              "eqb" + std::to_string(i));
    // Balanced 2-input AND tree.
    int serial = 0;
    while (layer.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
            next.push_back(c.add_gate(GateType::And,
                                      {layer[i], layer[i + 1]},
                                      "andt" + std::to_string(serial++)));
        if (layer.size() % 2 == 1) next.push_back(layer.back());
        layer = std::move(next);
    }
    c.mark_output(layer[0]);
    c.validate();
    return c;
}

Circuit parity_tree(std::size_t width) {
    require(width >= 2, "parity_tree: width >= 2");
    Circuit c("par" + std::to_string(width));
    std::vector<NodeId> layer(width);
    for (std::size_t i = 0; i < width; ++i)
        layer[i] = c.add_input("d" + std::to_string(i));
    int serial = 0;
    while (layer.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
            next.push_back(c.add_gate(GateType::Xor,
                                      {layer[i], layer[i + 1]},
                                      "xt" + std::to_string(serial++)));
        if (layer.size() % 2 == 1) next.push_back(layer.back());
        layer = std::move(next);
    }
    c.mark_output(layer[0]);
    c.validate();
    return c;
}

Circuit decoder(std::size_t bits) {
    require(bits >= 2 && bits <= 12, "decoder: bits in [2, 12]");
    Circuit c("dec" + std::to_string(bits));
    std::vector<NodeId> in(bits);
    std::vector<NodeId> inv(bits);
    for (std::size_t i = 0; i < bits; ++i)
        in[i] = c.add_input("s" + std::to_string(i));
    const NodeId en = c.add_input("en");
    for (std::size_t i = 0; i < bits; ++i)
        inv[i] = c.add_gate(GateType::Not, {in[i]},
                            "ns" + std::to_string(i));
    const std::size_t lines = std::size_t{1} << bits;
    for (std::size_t k = 0; k < lines; ++k) {
        std::vector<NodeId> literals{en};
        for (std::size_t i = 0; i < bits; ++i)
            literals.push_back(((k >> i) & 1) ? in[i] : inv[i]);
        // Balanced 2-input AND tree over the literals.
        std::vector<NodeId> layer = std::move(literals);
        int serial = 0;
        while (layer.size() > 1) {
            std::vector<NodeId> next;
            for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
                next.push_back(
                    c.add_gate(GateType::And, {layer[i], layer[i + 1]},
                               "y" + std::to_string(k) + "_t" +
                                   std::to_string(serial++)));
            if (layer.size() % 2 == 1) next.push_back(layer.back());
            layer = std::move(next);
        }
        c.mark_output(layer[0]);
    }
    c.validate();
    return c;
}

Circuit layered_fabric(const FabricOptions& options) {
    const std::size_t w = options.width;
    const std::size_t layers = options.layers;
    require(w >= 2, "layered_fabric: width >= 2");
    require(layers >= 1, "layered_fabric: layers >= 1");
    const std::size_t shift = options.shift % w;
    // A zero (mod width) shift would tap each cell's own sum: x^y^x = y
    // and maj(x,y,x) = x, a fabric of wires.
    require(shift != 0, "layered_fabric: shift must not be a multiple of width");

    Circuit c("fabric" + std::to_string(w) + "x" + std::to_string(layers));
    const std::size_t cells = w * layers;
    // 2w inputs + 7 gates per cell; every gate is 2-input; names are
    // <letter><layer>_<col>, at most 2 + 2*20 digits.
    c.reserve(2 * w + 7 * cells, 14 * cells, 16 * (2 * w + 7 * cells));

    // to_chars naming without a heap allocation per gate.
    char buf[48];
    // The layer digits stop one byte short of the end, so the '_' after
    // them always lands inside the buffer.
    const auto cell_name = [&buf](char role, std::size_t layer,
                                  std::size_t col) {
        buf[0] = role;
        auto r = std::to_chars(buf + 1, buf + sizeof buf - 1, layer);
        require(r.ec == std::errc{}, "layered_fabric: cell name overflow");
        *r.ptr++ = '_';
        r = std::to_chars(r.ptr, buf + sizeof buf, col);
        require(r.ec == std::errc{}, "layered_fabric: cell name overflow");
        return std::string_view(buf, static_cast<std::size_t>(r.ptr - buf));
    };

    std::vector<NodeId> sum(w);
    std::vector<NodeId> carry(w);
    for (std::size_t i = 0; i < w; ++i)
        sum[i] = c.add_input(cell_name('a', 0, i));
    for (std::size_t i = 0; i < w; ++i)
        carry[i] = c.add_input(cell_name('b', 0, i));

    std::vector<NodeId> next_sum(w);
    std::vector<NodeId> next_carry(w);
    for (std::size_t l = 0; l < layers; ++l) {
        for (std::size_t i = 0; i < w; ++i) {
            const NodeId x = sum[i];
            const NodeId y = carry[i];
            const NodeId z = sum[(i + shift) % w];
            const NodeId t =
                c.add_gate(GateType::Xor, {x, y}, cell_name('t', l, i));
            const NodeId s =
                c.add_gate(GateType::Xor, {t, z}, cell_name('s', l, i));
            const NodeId p =
                c.add_gate(GateType::And, {x, y}, cell_name('p', l, i));
            const NodeId q =
                c.add_gate(GateType::And, {x, z}, cell_name('q', l, i));
            const NodeId r =
                c.add_gate(GateType::And, {y, z}, cell_name('r', l, i));
            const NodeId o =
                c.add_gate(GateType::Or, {p, q}, cell_name('o', l, i));
            next_sum[i] = s;
            next_carry[(i + 1) % w] =
                c.add_gate(GateType::Or, {o, r}, cell_name('c', l, i));
        }
        sum.swap(next_sum);
        carry.swap(next_carry);
    }
    // The final rails are the fabric's outputs.
    for (NodeId v : sum) c.mark_output(v);
    for (NodeId v : carry) c.mark_output(v);
    c.validate();
    return c;
}

}  // namespace tpi::gen
