library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use ieee.float_pkg.all;

entity power_top is
  port (
    clk : in std_logic;
    rst : in std_logic;
    arg0_data : in std_logic_vector(63 downto 0);
    arg0_valid : in std_logic;
    arg0_ready : out std_logic;
    arg1_data : in std_logic_vector(63 downto 0);
    arg1_valid : in std_logic;
    arg1_ready : out std_logic;
    start_valid : in std_logic;
    start_ready : out std_logic;
    result_data : out std_logic_vector(63 downto 0);
    result_valid : out std_logic;
    result_ready : in std_logic
  );
end entity;

architecture structural of power_top is
  signal ch_0_data : std_logic_vector(63 downto 0);
  signal ch_0_valid : std_logic;
  signal ch_0_ready : std_logic;
  signal ch_1_data : std_logic_vector(63 downto 0);
  signal ch_1_valid : std_logic;
  signal ch_1_ready : std_logic;
  signal ch_2_valid : std_logic;
  signal ch_2_ready : std_logic;
  signal ch_3_valid : std_logic;
  signal ch_3_ready : std_logic;
  signal ch_4_valid : std_logic;
  signal ch_4_ready : std_logic;
  signal ch_5_valid : std_logic;
  signal ch_5_ready : std_logic;
  signal ch_6_valid : std_logic;
  signal ch_6_ready : std_logic;
  signal ch_7_valid : std_logic;
  signal ch_7_ready : std_logic;
  signal ch_8_data : std_logic_vector(63 downto 0);
  signal ch_8_valid : std_logic;
  signal ch_8_ready : std_logic;
  signal ch_9_data : std_logic_vector(63 downto 0);
  signal ch_9_valid : std_logic;
  signal ch_9_ready : std_logic;
  signal ch_10_data : std_logic_vector(63 downto 0);
  signal ch_10_valid : std_logic;
  signal ch_10_ready : std_logic;
  signal ch_11_data : std_logic_vector(63 downto 0);
  signal ch_11_valid : std_logic;
  signal ch_11_ready : std_logic;
  signal ch_12_data : std_logic_vector(63 downto 0);
  signal ch_12_valid : std_logic;
  signal ch_12_ready : std_logic;
  signal ch_13_data : std_logic_vector(63 downto 0);
  signal ch_13_valid : std_logic;
  signal ch_13_ready : std_logic;
  signal ch_14_data : std_logic_vector(63 downto 0);
  signal ch_14_valid : std_logic;
  signal ch_14_ready : std_logic;
  signal ch_15_data : std_logic_vector(0 downto 0);
  signal ch_15_valid : std_logic;
  signal ch_15_ready : std_logic;
  signal ch_16_data : std_logic_vector(0 downto 0);
  signal ch_16_valid : std_logic;
  signal ch_16_ready : std_logic;
  signal ch_17_data : std_logic_vector(0 downto 0);
  signal ch_17_valid : std_logic;
  signal ch_17_ready : std_logic;
  signal ch_18_data : std_logic_vector(0 downto 0);
  signal ch_18_valid : std_logic;
  signal ch_18_ready : std_logic;
  signal ch_19_data : std_logic_vector(0 downto 0);
  signal ch_19_valid : std_logic;
  signal ch_19_ready : std_logic;
  signal ch_20_valid : std_logic;
  signal ch_20_ready : std_logic;
  signal ch_21_valid : std_logic;
  signal ch_21_ready : std_logic;
  signal ch_22_valid : std_logic;
  signal ch_22_ready : std_logic;
  signal ch_23_valid : std_logic;
  signal ch_23_ready : std_logic;
  signal ch_24_data : std_logic_vector(63 downto 0);
  signal ch_24_valid : std_logic;
  signal ch_24_ready : std_logic;
  signal ch_25_data : std_logic_vector(63 downto 0);
  signal ch_25_valid : std_logic;
  signal ch_25_ready : std_logic;
  signal ch_26_data : std_logic_vector(63 downto 0);
  signal ch_26_valid : std_logic;
  signal ch_26_ready : std_logic;
  signal ch_27_data : std_logic_vector(63 downto 0);
  signal ch_27_valid : std_logic;
  signal ch_27_ready : std_logic;
  signal ch_28_data : std_logic_vector(63 downto 0);
  signal ch_28_valid : std_logic;
  signal ch_28_ready : std_logic;
  signal ch_29_data : std_logic_vector(63 downto 0);
  signal ch_29_valid : std_logic;
  signal ch_29_ready : std_logic;
  signal ch_30_data : std_logic_vector(63 downto 0);
  signal ch_30_valid : std_logic;
  signal ch_30_ready : std_logic;
  signal ch_31_data : std_logic_vector(63 downto 0);
  signal ch_31_valid : std_logic;
  signal ch_31_ready : std_logic;
  signal ch_32_data : std_logic_vector(63 downto 0);
  signal ch_32_valid : std_logic;
  signal ch_32_ready : std_logic;
  signal ch_33_data : std_logic_vector(63 downto 0);
  signal ch_33_valid : std_logic;
  signal ch_33_ready : std_logic;
  signal ch_34_data : std_logic_vector(63 downto 0);
  signal ch_34_valid : std_logic;
  signal ch_34_ready : std_logic;
  signal ch_35_valid : std_logic;
  signal ch_35_ready : std_logic;
  signal ch_36_data : std_logic_vector(63 downto 0);
  signal ch_36_valid : std_logic;
  signal ch_36_ready : std_logic;
  signal ch_37_data : std_logic_vector(63 downto 0);
  signal ch_37_valid : std_logic;
  signal ch_37_ready : std_logic;
  signal ch_38_data : std_logic_vector(63 downto 0);
  signal ch_38_valid : std_logic;
  signal ch_38_ready : std_logic;
begin
  cmp_0_entry : entity work.entry_w64
    port map (
      clk => clk,
      rst => rst,
      in0_data => arg0_data,
      in0_valid => arg0_valid,
      in0_ready => arg0_ready,
      out0_data => ch_0_data,
      out0_valid => ch_0_valid,
      out0_ready => ch_0_ready
    );
  cmp_1_entry : entity work.entry_w64
    port map (
      clk => clk,
      rst => rst,
      in0_data => arg1_data,
      in0_valid => arg1_valid,
      in0_ready => arg1_ready,
      out0_data => ch_1_data,
      out0_valid => ch_1_valid,
      out0_ready => ch_1_ready
    );
  cmp_2_entry : entity work.entry_w0
    port map (
      clk => clk,
      rst => rst,
      in0_valid => start_valid,
      in0_ready => start_ready,
      out0_valid => ch_2_valid,
      out0_ready => ch_2_ready
    );
  cmp_3_exit : entity work.exit_w64
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_29_data,
      in0_valid => ch_29_valid,
      in0_ready => ch_29_ready,
      out0_data => result_data,
      out0_valid => result_valid,
      out0_ready => result_ready
    );
  cmp_4_merge : entity work.merge_w0_n2
    port map (
      clk => clk,
      rst => rst,
      in0_valid => ch_4_valid,
      in0_ready => ch_4_ready,
      in1_valid => ch_35_valid,
      in1_ready => ch_35_ready,
      out0_valid => ch_5_valid,
      out0_ready => ch_5_ready
    );
  cmp_5_merge : entity work.merge_w64_n2
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_13_data,
      in0_valid => ch_13_valid,
      in0_ready => ch_13_ready,
      in1_data => ch_36_data,
      in1_valid => ch_36_valid,
      in1_ready => ch_36_ready,
      out0_data => ch_8_data,
      out0_valid => ch_8_valid,
      out0_ready => ch_8_ready
    );
  cmp_6_merge : entity work.merge_w64_n2
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_1_data,
      in0_valid => ch_1_valid,
      in0_ready => ch_1_ready,
      in1_data => ch_37_data,
      in1_valid => ch_37_valid,
      in1_ready => ch_37_ready,
      out0_data => ch_9_data,
      out0_valid => ch_9_valid,
      out0_ready => ch_9_ready
    );
  cmp_7_merge : entity work.merge_w64_n2
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_0_data,
      in0_valid => ch_0_valid,
      in0_ready => ch_0_ready,
      in1_data => ch_38_data,
      in1_valid => ch_38_valid,
      in1_ready => ch_38_ready,
      out0_data => ch_12_data,
      out0_valid => ch_12_valid,
      out0_ready => ch_12_ready
    );
  cmp_8_const : entity work.const_w64
    generic map (
      g_value => x"0000000000000001"
    )
    port map (
      clk => clk,
      rst => rst,
      in0_valid => ch_3_valid,
      in0_ready => ch_3_ready,
      out0_data => ch_13_data,
      out0_valid => ch_13_valid,
      out0_ready => ch_13_ready
    );
  cmp_9_const : entity work.const_w64
    generic map (
      g_value => x"0000000000000000"
    )
    port map (
      clk => clk,
      rst => rst,
      in0_valid => ch_6_valid,
      in0_ready => ch_6_ready,
      out0_data => ch_14_data,
      out0_valid => ch_14_valid,
      out0_ready => ch_14_ready
    );
  cmp_10_operator : entity work.op_cmp_gt_i64_l0
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_10_data,
      in0_valid => ch_10_valid,
      in0_ready => ch_10_ready,
      in1_data => ch_14_data,
      in1_valid => ch_14_valid,
      in1_ready => ch_14_ready,
      out0_data => ch_15_data,
      out0_valid => ch_15_valid,
      out0_ready => ch_15_ready
    );
  cmp_11_branch : entity work.branch_w0
    port map (
      clk => clk,
      rst => rst,
      in0_valid => ch_7_valid,
      in0_ready => ch_7_ready,
      in1_data => ch_16_data,
      in1_valid => ch_16_valid,
      in1_ready => ch_16_ready,
      out0_valid => ch_20_valid,
      out0_ready => ch_20_ready,
      out1_valid => ch_23_valid,
      out1_ready => ch_23_ready
    );
  cmp_12_branch : entity work.branch_w64
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_12_data,
      in0_valid => ch_12_valid,
      in0_ready => ch_12_ready,
      in1_data => ch_17_data,
      in1_valid => ch_17_valid,
      in1_ready => ch_17_ready,
      out0_data => ch_24_data,
      out0_valid => ch_24_valid,
      out0_ready => ch_24_ready,
      out1_data => ch_27_data,
      out1_valid => ch_27_valid,
      out1_ready => ch_27_ready
    );
  cmp_13_branch : entity work.branch_w64
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_8_data,
      in0_valid => ch_8_valid,
      in0_ready => ch_8_ready,
      in1_data => ch_18_data,
      in1_valid => ch_18_valid,
      in1_ready => ch_18_ready,
      out0_data => ch_28_data,
      out0_valid => ch_28_valid,
      out0_ready => ch_28_ready,
      out1_data => ch_29_data,
      out1_valid => ch_29_valid,
      out1_ready => ch_29_ready
    );
  cmp_14_branch : entity work.branch_w64
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_11_data,
      in0_valid => ch_11_valid,
      in0_ready => ch_11_ready,
      in1_data => ch_19_data,
      in1_valid => ch_19_valid,
      in1_ready => ch_19_ready,
      out0_data => ch_30_data,
      out0_valid => ch_30_valid,
      out0_ready => ch_30_ready,
      out1_data => ch_31_data,
      out1_valid => ch_31_valid,
      out1_ready => ch_31_ready
    );
  cmp_15_operator : entity work.op_mul_i64_l2
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_28_data,
      in0_valid => ch_28_valid,
      in0_ready => ch_28_ready,
      in1_data => ch_25_data,
      in1_valid => ch_25_valid,
      in1_ready => ch_25_ready,
      out0_data => ch_32_data,
      out0_valid => ch_32_valid,
      out0_ready => ch_32_ready
    );
  cmp_16_const : entity work.const_w64
    generic map (
      g_value => x"0000000000000001"
    )
    port map (
      clk => clk,
      rst => rst,
      in0_valid => ch_21_valid,
      in0_ready => ch_21_ready,
      out0_data => ch_33_data,
      out0_valid => ch_33_valid,
      out0_ready => ch_33_ready
    );
  cmp_17_operator : entity work.op_sub_i64_l0
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_30_data,
      in0_valid => ch_30_valid,
      in0_ready => ch_30_ready,
      in1_data => ch_33_data,
      in1_valid => ch_33_valid,
      in1_ready => ch_33_ready,
      out0_data => ch_34_data,
      out0_valid => ch_34_valid,
      out0_ready => ch_34_ready
    );
  cmp_18_fork : entity work.fork_w0_n2
    port map (
      clk => clk,
      rst => rst,
      in0_valid => ch_2_valid,
      in0_ready => ch_2_ready,
      out0_valid => ch_3_valid,
      out0_ready => ch_3_ready,
      out1_valid => ch_4_valid,
      out1_ready => ch_4_ready
    );
  cmp_19_fork : entity work.fork_w0_n2
    port map (
      clk => clk,
      rst => rst,
      in0_valid => ch_5_valid,
      in0_ready => ch_5_ready,
      out0_valid => ch_6_valid,
      out0_ready => ch_6_ready,
      out1_valid => ch_7_valid,
      out1_ready => ch_7_ready
    );
  cmp_20_fork : entity work.fork_w64_n2
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_9_data,
      in0_valid => ch_9_valid,
      in0_ready => ch_9_ready,
      out0_data => ch_10_data,
      out0_valid => ch_10_valid,
      out0_ready => ch_10_ready,
      out1_data => ch_11_data,
      out1_valid => ch_11_valid,
      out1_ready => ch_11_ready
    );
  cmp_21_fork : entity work.fork_w1_n4
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_15_data,
      in0_valid => ch_15_valid,
      in0_ready => ch_15_ready,
      out0_data => ch_16_data,
      out0_valid => ch_16_valid,
      out0_ready => ch_16_ready,
      out1_data => ch_17_data,
      out1_valid => ch_17_valid,
      out1_ready => ch_17_ready,
      out2_data => ch_18_data,
      out2_valid => ch_18_valid,
      out2_ready => ch_18_ready,
      out3_data => ch_19_data,
      out3_valid => ch_19_valid,
      out3_ready => ch_19_ready
    );
  cmp_22_fork : entity work.fork_w0_n2
    port map (
      clk => clk,
      rst => rst,
      in0_valid => ch_20_valid,
      in0_ready => ch_20_ready,
      out0_valid => ch_21_valid,
      out0_ready => ch_21_ready,
      out1_valid => ch_22_valid,
      out1_ready => ch_22_ready
    );
  cmp_23_sink : entity work.sink_w0
    port map (
      clk => clk,
      rst => rst,
      in0_valid => ch_23_valid,
      in0_ready => ch_23_ready
    );
  cmp_24_fork : entity work.fork_w64_n2
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_24_data,
      in0_valid => ch_24_valid,
      in0_ready => ch_24_ready,
      out0_data => ch_25_data,
      out0_valid => ch_25_valid,
      out0_ready => ch_25_ready,
      out1_data => ch_26_data,
      out1_valid => ch_26_valid,
      out1_ready => ch_26_ready
    );
  cmp_25_sink : entity work.sink_w64
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_27_data,
      in0_valid => ch_27_valid,
      in0_ready => ch_27_ready
    );
  cmp_26_sink : entity work.sink_w64
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_31_data,
      in0_valid => ch_31_valid,
      in0_ready => ch_31_ready
    );
  cmp_27_buffer : entity work.buffer_w0
    port map (
      clk => clk,
      rst => rst,
      in0_valid => ch_22_valid,
      in0_ready => ch_22_ready,
      out0_valid => ch_35_valid,
      out0_ready => ch_35_ready
    );
  cmp_28_buffer : entity work.buffer_w64
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_32_data,
      in0_valid => ch_32_valid,
      in0_ready => ch_32_ready,
      out0_data => ch_36_data,
      out0_valid => ch_36_valid,
      out0_ready => ch_36_ready
    );
  cmp_29_buffer : entity work.buffer_w64
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_34_data,
      in0_valid => ch_34_valid,
      in0_ready => ch_34_ready,
      out0_data => ch_37_data,
      out0_valid => ch_37_valid,
      out0_ready => ch_37_ready
    );
  cmp_30_buffer : entity work.buffer_w64
    port map (
      clk => clk,
      rst => rst,
      in0_data => ch_26_data,
      in0_valid => ch_26_valid,
      in0_ready => ch_26_ready,
      out0_data => ch_38_data,
      out0_valid => ch_38_valid,
      out0_ready => ch_38_ready
    );
end architecture;
