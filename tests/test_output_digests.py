"""Byte guard: the printed output of a fixed set of qsh commands.

Each entry maps a command line (argv joined by spaces) to the sha256 of
its stdout: the Phi_X, Psi_X and Delta_X series of nine words and
indices at orders 0..4 and of a, b and ab at orders 5 and 6, one
calculator command of each other kind, and both export kinds as CSV. A
change to any coefficient, term order or number format fails here.

The verify digests cover stdout with each case's "(x ms)" timing
stripped: one small run of every suite, and every verify step of the
cyclotomic benchmark workload (read from perfbench/workloads.json). They
pin the case order, labels, verdicts and summary line.
"""
import hashlib
import json
import re
from pathlib import Path

import pytest

from qharmonic import verify
from qharmonic.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"

DIGESTS = {
    "series phi a --order 0": "144ce014b974cd2062d4a0ebe48df2234f01121bd2674e96232f7ff2f2d68260",
    "series phi a --order 1": "36917adde119aebec4511af74958cf1e8c4008b359a1b4b18980d040b77adf02",
    "series phi a --order 2": "608d05d4859e2f588224ceb824f31449bbf20bbfa4c527bab6b5689c26c533cb",
    "series phi a --order 3": "a54f1d22a3aea0a7852e2c9f9f9c8241571abe7f9e2f959596d88d625fe4b2a9",
    "series phi a --order 4": "7e2d4baa8e8927e564fdfebc5b19cb6d1ea9e749718a714f45221ec552a2428d",
    "series phi a --order 5": "fac50735cf1b8c2805d9988186ddf55cba1ab3d0ae1afb867596352197300d3c",
    "series phi a --order 6": "597fb814565c2f940af0f3c03273eff640307958079c9e69a2fcc847876aa98e",
    "series phi b --order 0": "e8bea1d5f1ec7c652d9193399b06e86b4ef738e4a57ff3764160df4ff4b82c3a",
    "series phi b --order 1": "cfe481da19d51795280eb5390da1bc5ba3fc57447c8db1138afca683181c55e5",
    "series phi b --order 2": "bc2875b6f1d68877112e2cab5355ddf14dc0e42f6ff1f952d443bb13c774c5e3",
    "series phi b --order 3": "3fffacf8ac83005302c82188f06da9971a54561265654baf32ae6b56f8a4c351",
    "series phi b --order 4": "bcee9e14e0ac1e4909c1b740c902d93d59b4a707966752da718cdf9c0eca4dac",
    "series phi b --order 5": "8b5685dbccdfcbd7b6fa996f1e6b5e302a7eeaf68993fdad232fb8c0a1b85252",
    "series phi b --order 6": "2d38a57e300474b70a94e2039f47d7bf46df96f35f138a639699bdd88ee7fd8c",
    "series phi ab --order 0": "0a197a2ce5b8c65908e22c3ec349cc04dd8e5d246dcb9a3476c976aed9ed6aa3",
    "series phi ab --order 1": "2081005fb0b8a0c81d4e188b70e371d1d9ad2ca44bd413df30c85938f30bc809",
    "series phi ab --order 2": "0c5e137f34e4c0666851b9a1f316bf5f02b8deb02a4f99c1bf4a44ce70c2e320",
    "series phi ab --order 3": "6d349ab41e2f947f499cb17133de7eab097d36154432d58d3141bfa2198c0491",
    "series phi ab --order 4": "5626d19b825fcb8c9a65b32bbd06abec6a04d5f66c04c3bc7298b976ce5fc452",
    "series phi ab --order 5": "3a9e5f34a36bb427a5f2cd450c560469c300ccd263e9f3e7759825217255265b",
    "series phi ab --order 6": "56e5b19735bcefd9c32b9deb524772966384089aaa202c63f221ffac9b321c90",
    "series phi aab --order 0": "0fb33a41f8f447b565dfbc60853b71aa6c0a80ee7442159e7a64240544e1630e",
    "series phi aab --order 1": "da2f30fa953dba6224e1b4a6333da558bf7e13dd4ace8d8eb9ad2c4a389db7a2",
    "series phi aab --order 2": "571d30e503860ac973b8f8dc47f17b38a82f6732c6762055df2458b7f7b9eda6",
    "series phi aab --order 3": "49ddf318d72ec1c87e91da176d448e35ff6cd4dfd34e7e4f0dad36f29f52efc0",
    "series phi aab --order 4": "0c6ad8b12ba4c5c0a73248d13fa22fbfe54f06ed39b5d051710d69f7b0835e05",
    "series phi bab --order 0": "3f9eb58cf1a000a80e5b78ba3c38e84f6e3887666e02f61cf1f3ab7a90f18a72",
    "series phi bab --order 1": "c19c4df6139d2b5717578678bb58dbb0524d5b719c2bd2e73ef136a131811645",
    "series phi bab --order 2": "d2789098c679e4006c9f48b84c02f94099a0f6566b18f64b263f4fedfd74f615",
    "series phi bab --order 3": "3a428715cea4965aa86261a8dbf87ab00120acd05ffe09ed4a8078a0868377c5",
    "series phi bab --order 4": "3ca5d0f228888facfd32a281892a8e5c45395bf2d18342019daec848a001c38f",
    "series phi 2 --order 0": "6b55340fd7ec2174257273579ec3210c342be7cf89627a47c70549e1579ff5d5",
    "series phi 2 --order 1": "1165156dc0048d37ad1111b1cbc0640c9168394e2889ba028c21ec3fd1cdfb7c",
    "series phi 2 --order 2": "3746e7c6f602899c0cbfce6dafb2b1fdcf5885d6542e442c81c13d44718dd920",
    "series phi 2 --order 3": "e6c6ec5981776efb18b876a244f915a313b5fba00d26710bcd4d08353de8c03f",
    "series phi 2 --order 4": "5da7518052ea751852b76c8a4d2e9af75e445ff63f6f75f3b33cfcdf92eb1f49",
    "series phi 2,1 --order 0": "ddaf2b16f8a63f177776db431a79024b24ad4459512de59a5bdc850efd3c8833",
    "series phi 2,1 --order 1": "34488e5f492a6e13983159d22a1712d3294fc50514a63531c9b3047981cc468f",
    "series phi 2,1 --order 2": "47d526dd3382867081d51a799cd85ad1393c98898aae86aa89f6803033da97ca",
    "series phi 2,1 --order 3": "77956fc1ea27065630e7a99207d0d34b24516bf1fdd2e2f6388b1c4ea81afd99",
    "series phi 2,1 --order 4": "d8fdac0a7a3fb2c81b76dd9d3762b609f3fcc62832a419bbb88d41cb056eea33",
    "series phi 1bar,2 --order 0": "67299d1d6ab011eed7b31e418dcc12ed830d8d85b4af158f6625a8c88ef2e2fd",
    "series phi 1bar,2 --order 1": "90fa24b41a609f75ae83644b443465fd0ab4d97fac0a6f82826c1cd6b897a017",
    "series phi 1bar,2 --order 2": "c7b9a1a14d6d6147fa1a23c3865f6bf837cb3a14413cf72fe2d3bd66e35e3dfa",
    "series phi 1bar,2 --order 3": "8750c132fe16aa4d3b730ad17fb7ea2de08c8131ae96a5f07bb0f58ae76338f1",
    "series phi 1bar,2 --order 4": "046d988573f6aab13013180d4ecdce8f205f84c1c6ea81c1e35968c4587b6434",
    "series phi 3,1,1 --order 0": "b68a9d463b03a81dc6c1b69bfd8aad6b542062e6e32b2df77d6ff4bec395e749",
    "series phi 3,1,1 --order 1": "6c23883087567ef12156c7800c8392abbbd14f2b2e7ba58f3212d3afe6264908",
    "series phi 3,1,1 --order 2": "c905021f2b255cdbd30be1927be8ebd52e97e8a5627c5a95b0f8ddcfa7739225",
    "series phi 3,1,1 --order 3": "e7b90f244035ce4aa50d0d224e281e53ab75942550d822c8ad8d652b48a72de7",
    "series phi 3,1,1 --order 4": "198c7ba7fc27611375f844e2ba3b70aca1eaadf449a61f7972e0e0ec7b0d2814",
    "series psi a --order 0": "144ce014b974cd2062d4a0ebe48df2234f01121bd2674e96232f7ff2f2d68260",
    "series psi a --order 1": "84d3d727e4d414fc9c06feee60a44505f0cacba7c5d216c33d8b85137d44588b",
    "series psi a --order 2": "fa350e6de8d0e8fc1441fa7b093ab8afd05641a74faaabd4f1b843185a5f0393",
    "series psi a --order 3": "7d9ff817415218d4823e88fba7f556a075e565b35c94c29426803f1d005e1eb5",
    "series psi a --order 4": "1282f4917794a26ff5a81656291ae2f4254709eb176c57a91c07fe357367079a",
    "series psi a --order 5": "dad7f2f66376e2daf0eded88d7305cba494523ad74789decd6e3241f43a6a5b9",
    "series psi a --order 6": "f52c9dc9cc6d258cd419bb037711b38156df873b7b93b0e53ff42b4dc7efd4d0",
    "series psi b --order 0": "e8bea1d5f1ec7c652d9193399b06e86b4ef738e4a57ff3764160df4ff4b82c3a",
    "series psi b --order 1": "80c06dc55eaa0ce32924005cd06fe23720e489a77a351aa94f8558c36f9a3f41",
    "series psi b --order 2": "03a83d30fd7a7099271613c10c738e49abb640e760b7ec4f67bb78c4b62f0201",
    "series psi b --order 3": "36cb0c752c08433b5368a674c27dd08a7bb2d00c63d06e4c308541c4a70453cc",
    "series psi b --order 4": "fd02d69227c24fae7195f1e47fa3b4572d6298ad806004c0b21f2aeae6df4ed1",
    "series psi b --order 5": "5308b714897567896f999b627ff95393b1f68a2d30efd037e7f99a2c7389ad71",
    "series psi b --order 6": "cea2a00c7801a7933b3b1fe2f71ba85edd4988f64813d34cd55c469a8ce5d1a3",
    "series psi ab --order 0": "0a197a2ce5b8c65908e22c3ec349cc04dd8e5d246dcb9a3476c976aed9ed6aa3",
    "series psi ab --order 1": "e2a11f6a89843d36f8bd036c11050e7a8fbc798a537696a66398116dc4d464a9",
    "series psi ab --order 2": "e0ddf98ddc6612940acd924886c0b88ace494ac9b9d8a109e348d5bed0b4fcb2",
    "series psi ab --order 3": "fe85350e50912aa214f4b4cfeeca41b77dd834ae3676390e3aa9baf8f434b953",
    "series psi ab --order 4": "ad3753aacf009ac1a68f465c7097607e5fb32e493328c26f48e483a0f10d5591",
    "series psi ab --order 5": "84832510cc08ea13598334d37b2058b4ceee4cc910ab15e3d568daf0127b357a",
    "series psi ab --order 6": "eb5e7db2b8aa8112f4cd40ac1ab9de2619756fa46aa4ecf48ed29a38a5195523",
    "series psi aab --order 0": "0fb33a41f8f447b565dfbc60853b71aa6c0a80ee7442159e7a64240544e1630e",
    "series psi aab --order 1": "ac612f479c4c130aa44ec5ff445ce211ae4fc945d5e12f2bdd4cd37f74138c7a",
    "series psi aab --order 2": "7c7d62730bcf98c25ccd8422c85cc0da1aaf9ff3c7ac12c6a705d49224a4624a",
    "series psi aab --order 3": "5eb32fcce58e4e0c531baca57ca58632436145932bd2542d716b0c300bea4867",
    "series psi aab --order 4": "0000fff0a7cb6512c48e095d66ad27922472d1031095a5f3fe4586213413b51f",
    "series psi bab --order 0": "3f9eb58cf1a000a80e5b78ba3c38e84f6e3887666e02f61cf1f3ab7a90f18a72",
    "series psi bab --order 1": "fe106cd9c416d8e63d9929a1dbe5e766fec0af4160ec31513056a566d74364b3",
    "series psi bab --order 2": "d8d72c419be48d03afb5e7f3ed27d2e4c00f6fd4b6f4134c8b184069a50045aa",
    "series psi bab --order 3": "21a2ca1bd328650b311497a98858777a0eddfaf761befe9e1005a935ac7bb8e1",
    "series psi bab --order 4": "54bba3b42c3235628f3bdd3c80ff2d16088ec0100de7e4463f98436c9afa7f4f",
    "series psi 2 --order 0": "6b55340fd7ec2174257273579ec3210c342be7cf89627a47c70549e1579ff5d5",
    "series psi 2 --order 1": "0b481dfb345ba91cb2a51c4798f0aa7add3910d6634f11ee43ef431c7d9598bd",
    "series psi 2 --order 2": "7c61c5ac7377366e2847a9591dc1103d9c4452b238c06ab7ae531f373860eaf0",
    "series psi 2 --order 3": "55d9e0f1c4fcbfd6e3618b21c13e4359358a3225af499facffdabd006a83ee85",
    "series psi 2 --order 4": "b283a2b55e6d61b572d4671e4a47e5d3bfa04464f34f52a1cbfb5122f5554f15",
    "series psi 2,1 --order 0": "ddaf2b16f8a63f177776db431a79024b24ad4459512de59a5bdc850efd3c8833",
    "series psi 2,1 --order 1": "fefbb53bd2e387afa58c6a5ff879c06c4ca44ca71263af4afb10fa69ab84d613",
    "series psi 2,1 --order 2": "8d85af32c55d2affaa3e8db8e370755c40235145f6403464872bed9ff66d700b",
    "series psi 2,1 --order 3": "032435888e66fff0d60d7839738450f4678660a3c2756b26177da1301d7ad4d0",
    "series psi 2,1 --order 4": "3717d8285850c33337094e420093d43317229d4c542b94a32c6f7c04617b53bc",
    "series psi 1bar,2 --order 0": "67299d1d6ab011eed7b31e418dcc12ed830d8d85b4af158f6625a8c88ef2e2fd",
    "series psi 1bar,2 --order 1": "8df90f42bc22412c8446a58b9c11d38ee6de0bcd774e69b774a5ea24e8a6082c",
    "series psi 1bar,2 --order 2": "2f5af74f85e173d52ea40e21270def96baf6bea9d3048a6c870976217b4a09eb",
    "series psi 1bar,2 --order 3": "5b653ceb8c09189e792dbec89fff77af9654e00010a201bd25a88e9a81152604",
    "series psi 1bar,2 --order 4": "0db652b1fecc6d646a7a89aa2f034c7e5a203534d35877af2651157e4a82672b",
    "series psi 3,1,1 --order 0": "b68a9d463b03a81dc6c1b69bfd8aad6b542062e6e32b2df77d6ff4bec395e749",
    "series psi 3,1,1 --order 1": "83fefd3cbf9c822611e12984399f6225b0697f4cf3d37c0d665176c2a98b6e61",
    "series psi 3,1,1 --order 2": "e89ecde349afb608c7eb1dda037fddc159b23fce8db8302e0097f9d9be972e0c",
    "series psi 3,1,1 --order 3": "28276e418e9715b0472243254a058d3e681abb4db8e498063f0c668de1bed70d",
    "series psi 3,1,1 --order 4": "576543e39adebd18c5bf1dd4f38fb0f01af41cf9858cfb051ec726907516d1f4",
    "series delta a --order 0": "144ce014b974cd2062d4a0ebe48df2234f01121bd2674e96232f7ff2f2d68260",
    "series delta a --order 1": "883561210b90d4d5f5213fd92be9388b3449a5cfc754814706e8c1ced83bb0c8",
    "series delta a --order 2": "dba001588dfedf49e664bb0d1ef8dc8dab0de7522d1450296fd9ae8459ceee1b",
    "series delta a --order 3": "963791fc60fa4e84ae56a1260970b76a56a49c428b3641c6830c1578ed66c814",
    "series delta a --order 4": "39607a40e660c6127e3364d9b40305f9ae690c6d89cd34732505619fcd98a90c",
    "series delta a --order 5": "fb859c5981512fe80cb7c891fbbfb6e4ec9eedd4bd202633472f4050eb057bff",
    "series delta a --order 6": "9e24e84b3e136f024ece21d18d71b09c133d362dd44c8652bb96a88fe31a7193",
    "series delta b --order 0": "e8bea1d5f1ec7c652d9193399b06e86b4ef738e4a57ff3764160df4ff4b82c3a",
    "series delta b --order 1": "e54680a1d9351ff014147a241461321376c6fe6005e085b597ff052dfb51d188",
    "series delta b --order 2": "4181921ef53e9c1b58f1d2ff1617c91feda325111f12c3d90574bdd08b81d0ed",
    "series delta b --order 3": "70a18f45ea34e26cafb90c0a6c15e2683ad9b65921f06e759ab53cacca31f0b2",
    "series delta b --order 4": "e154aa4451e990257e460bcd9c7a9a1fe6dff377fec1672c55156247c39c9d91",
    "series delta b --order 5": "677b4dd6d9894ec0e7288a06194343640f35828da02e0e4595fe738c5aa1779f",
    "series delta b --order 6": "55ed223a58fcc16c6565afc0b54800ffa5105a63406cae9cbb2a69ae90cd0ed1",
    "series delta ab --order 0": "0a197a2ce5b8c65908e22c3ec349cc04dd8e5d246dcb9a3476c976aed9ed6aa3",
    "series delta ab --order 1": "25f223a0e4b5e1732cefdf609219a13ed73eac691174dac6015c42a5c0e01afd",
    "series delta ab --order 2": "6c91464f8a87630bacb18678b237d086901eca77c75f1520ef0b7fe6ce9a6c75",
    "series delta ab --order 3": "c2746ef39bb644739f83138a809911241a5c50a7619e66af4f37259a64a5b5b8",
    "series delta ab --order 4": "2022e097766ab7b11f1e2104361b01b59c1953c9f7009e9d798d45219aae9197",
    "series delta ab --order 5": "1beb9f30ca6b6eb0edca7a2ac91a125bc945f090b1dfff09879fdecbe2b2155c",
    "series delta ab --order 6": "43a0ba134564c90725159bcc74c20f18cd04fcacd671c2e1e36812bb7b884494",
    "series delta aab --order 0": "0fb33a41f8f447b565dfbc60853b71aa6c0a80ee7442159e7a64240544e1630e",
    "series delta aab --order 1": "57522de681ee4d9d8784857e01c301ad75aecd16345b366685d4bd2c52327553",
    "series delta aab --order 2": "d4906e1d2cc954a752949ad889a9395f7aa2a4ec70fa7e8f105f3ca229f1d0bc",
    "series delta aab --order 3": "feb520f28ac31f933e4295e75209fec7f3a7694188deb2c8048b8cb4cb6536a6",
    "series delta aab --order 4": "5c575ca2ccfd036cb96087f1179a629706ec3a45e6e7be4cd5fba97a5e693da5",
    "series delta bab --order 0": "3f9eb58cf1a000a80e5b78ba3c38e84f6e3887666e02f61cf1f3ab7a90f18a72",
    "series delta bab --order 1": "4111d3f19aecb4dbd5db50657ad29112b220bd91b3a3bef1f5a360a871008791",
    "series delta bab --order 2": "d0f8ece2cd8152b27e43863077ac53c5c1d343f8c8caf7f20fea7f80fe8bed39",
    "series delta bab --order 3": "3dbba29acf5109e1a9ee34eb0cabd7d99f44e0f96d689d6c0e30e0b099b29847",
    "series delta bab --order 4": "18cf0baebdfedaee24c76948c0375281cc98bf2e2bb27c323bee094bf6d2636d",
    "series delta 2 --order 0": "6b55340fd7ec2174257273579ec3210c342be7cf89627a47c70549e1579ff5d5",
    "series delta 2 --order 1": "54c34dfb9a3d7e3e64525587b37c5a47cea45d81e6623bf81ae8925aceefed9f",
    "series delta 2 --order 2": "b0d5bf787a1d0c02db5b983db0a4ae24d96b871e9c3d25279e9c6bd76e76c452",
    "series delta 2 --order 3": "0bfcb48bc2cd3fc8c99388e0e76e0a4c77502c4b0fe6a1449218042d22f4807c",
    "series delta 2 --order 4": "40f24c5b4f9994ecf9b07c847b319f7997218170cbacf9b35331327aeda59b1a",
    "series delta 2,1 --order 0": "ddaf2b16f8a63f177776db431a79024b24ad4459512de59a5bdc850efd3c8833",
    "series delta 2,1 --order 1": "352464793bf18120e43f08324e6f31157314a6078999825b4e04a9ec1e7a3cc6",
    "series delta 2,1 --order 2": "d0eb3d7171ee3a4042486870b3dafc1476fda194f33680582670b3e2e47a0d16",
    "series delta 2,1 --order 3": "2a40db7bdb963fe40dacb2c729b9f75da0e1f3ddbb3937587d64b76d7194c976",
    "series delta 2,1 --order 4": "a6700f20f014a0d537755f8f238c62223ae8d32dfbe8a93863d4405d942c189a",
    "series delta 1bar,2 --order 0": "67299d1d6ab011eed7b31e418dcc12ed830d8d85b4af158f6625a8c88ef2e2fd",
    "series delta 1bar,2 --order 1": "55ea409179e42027a82c0db2652d32022f2f82b93fb525b57f380f68a8efa7c0",
    "series delta 1bar,2 --order 2": "64fe060c30fe9d94288aec2c68e5fff92457123fe2595ca663cfc3954b394be5",
    "series delta 1bar,2 --order 3": "6f11e5ff0fbef37790a186d8b3ba500ffb209870fb74a949cd46a78d36d311eb",
    "series delta 1bar,2 --order 4": "1b2467fcf78b051782f7e99907f49c0d1255ce3793e205ef44971aa2a9d87b66",
    "series delta 3,1,1 --order 0": "b68a9d463b03a81dc6c1b69bfd8aad6b542062e6e32b2df77d6ff4bec395e749",
    "series delta 3,1,1 --order 1": "f19de199a311f5fab5bc722bf0b754b326d4d711428816a41514600fe94156eb",
    "series delta 3,1,1 --order 2": "e6c22fb8f2be2ab43edfc0956970c13c52abf4a659b9903f9bc9d824e525ac32",
    "series delta 3,1,1 --order 3": "3da8de57c49b8da9a67726dbbfe7f580cfa1781c47c39c5d45e7b0c8f343d93b",
    "series delta 3,1,1 --order 4": "b086ac3ce4753a099464ab1c1a6417d82b9d2d133a85215ca9a8d700956ea22a",
    "stuffle 2,1 1bar,3": "a789dc102591f442b7d56bcd1ccdff630c38808b169fb48ed70f8767bc1bad6b",
    "shuffle aab abb": "ce23f749a04920eb1083b914865f5a22e098a5453745b8305da70f675b18e131",
    "shuffle aab abb --to-e": "fc09f73d8564da9456a70da1bf7bdb0182bd89e75528f5cb49038d9921982c80",
    "partial 2 aabab": "0c15d8247dcdeefced9c717da5e8bf13c90d57e2a239d2d08b105478a3b158c5",
    "partial 3 2,1bar": "32c3d518e066915f2c2a073f53f7911356faebc2ee1619ddf579a60a8bc87639",
    "delta 2 abab": "619fe27b1f673bbd8bb12b3f336bf3aa179b17c3289d59cd9720b0797f0360ca",
    "zn 2,1 --n 5": "40a086eb02561b8849bab121def4f6c038a43099d98add118f89edfa5ba0c2f0",
    "eval zetaq 2,1bar --q 2/7 --M 30": "08200eaa258bc31709a8fecc1cac06084c46542502684e3fbcca15742f338bd3",
    "export --kind derivation --max-n 2 --max-weight 3 --format csv": "f229112e1b7a6e391dd42ed95bb6ef7737dd336e021de4864e45bc389f8b20d0",
    "export --kind ohno --max-n 5 --max-weight 2 --format csv": "34058d37ac4a883a3860e514fd9e4f2809a3f9fd22e362502d89801ab4289498",
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_output_digest(capsys, command):
    code = main(command.split(" "))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[command]


#: One small-flag run of each suite, keyed by command line.
SUITE_DIGESTS = {
    "verify double-shuffle --max-weight 1 --M 40": "4cd5e9fe7721b28a42f4afaece75118c9c4c20ed8010f860a71813ea9d1deff7",
    "verify log-formulas --order 3": "08d477161f4318738c7c229926ccc39357aa221100602246e5f72cd2bb4686d3",
    "verify delta-factorization --order 1 --max-weight 1": "c3f7476dc0c840bffd64a85ee37268bdaa40e9ac76a68827f43a0c4419f71f64",
    "verify cor-delta --order 2 --max-weight 2": "23e5dd95b79817702c31d9c6087457ddbbecfe64b101374b7e98e9bc96ca2456",
    "verify derivation --max-n 1 --max-weight 2 --M 40": "00a60630d3bb87936bcace32a8e5579523d3e077b38b8821e5b9632c7cb4e43e",
    "verify zn-stuffle --n 3:4 --max-weight 1": "f42a452dd7cd2416b195cded704d02ef9872e364decbdddc25caeccd5357b04e",
    "verify zn-duality --n 3:4 --max-weight 2": "fb00c59ecd5a41049f1d8563a3c2b367242798cddae4689e3c1c2f9b38e944b0",
    "verify ohno --n 4:5 --max-weight 2 --max-m 1": "e6366c7954a0f384a63907865a48fb230c7767c7ecccf641a5b502ebeea0a58b",
    "verify ones-bar --n 2:6": "2ac56e601fef8ec30b11f8b948f7bf7827cd3fee76067513bd9ac4217042a5e7",
    "verify fmzv --p 5,7 --max-weight 2": "bbc9e647d2ce53196909cdeaf00d44cf3524aeb3fea51752dc77b9f67a7d1c72",
    "verify varpi-l --p 7,11 --max-weight 2": "bdd41291cc553197a979901415e6089edb1ba64f40a7f27f8c97401b391011dd",
    "verify cyc-ohno --p 7,11 --max-weight 2": "cc7042561f75d5d8ebc0e50f8ad78f0c7e43221c70ad2386d4fc83fa67eb0573",
    "verify mzv-compare --max-n 2 --max-weight 2": "4ca19ea781605caa729c81b39b3f53b13269cb09c71f0c604f1c9d14ed0b1972",
}

#: The verify steps of the cyclotomic benchmark workload, keyed by command line.
WORKLOAD_DIGESTS = {
    "verify zn-stuffle --n 3:4 --max-weight 2": "8cb3cb5698fd2bd1dc12b8d27337496a6b90ca2bd9e81d739b4df7834a9d1b06",
    "verify zn-duality --n 3:3 --max-weight 2": "5b8776ec1bf2eff1458a5c774834fdb45984a11e5c5d9208422e2e4896585352",
    "verify ohno --n 4:4": "e97aa6f907f09619feea7cdddebbac25de4d929dcb296378f39ae3313e99f09d",
    "verify fmzv --p 5,7": "8ac3f63f4e87405a6285cb5d038830f7c7762ddf64bfb1b7486d2e538eb4329b",
    "verify cyc-ohno": "5959893471181c73d5a72a01b43b0646b0d27da62b4b658f8590545130ffa077",
    "verify varpi-l": "11ed21baa75a79e2e357dd20b5c4c1299bc5da7eacef73dc6a3586ea836b692f",
    "verify ones-bar --n 2:10": "8c8ac59f151fcc90768cf0b40fac4efb306dbcb4ff8205f0074af256ebc020fb",
}


def cyclotomic_verify_commands():
    steps = json.loads(WORKLOADS.read_text(encoding="utf-8"))["full"]["cyclotomic"]
    return [" ".join(step["argv"]) for step in steps if step["kind"] == "verify"]


def test_every_suite_has_a_digest():
    assert {command.split(" ")[1] for command in SUITE_DIGESTS} == set(verify.SUITES)


@pytest.mark.parametrize("command", list(SUITE_DIGESTS) + cyclotomic_verify_commands())
def test_verify_output_digest(capsys, command):
    code = main(command.split(" "))
    out = re.sub(r" \(\d+\.\d ms\)$", "", capsys.readouterr().out, flags=re.M)
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == {**SUITE_DIGESTS, **WORKLOAD_DIGESTS}[command]
